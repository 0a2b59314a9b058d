"""End-to-end integration: freeriders, colluders, audits, expulsion."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest

from repro import adversary
from repro.config import planetlab_params
from repro.core import blames
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.scenarios import run_scenario


def freerider_policy(degree, **params):
    return adversary.spec("freerider", degree=degree, **params)


def colluder_policy(degree=(0, 0, 0), **params):
    """The paper's coalition: the ``coalition`` policy without laundering."""
    return adversary.spec("coalition", degree=degree, launder=0.0, **params)


class TestFreeriderDetection:
    def test_freeriders_score_below_honest(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.25, 0.3, 0.3)),
            loss_rate=0.02,
            compensation=0.0,
        )
        cluster.run(until=12.0)
        scores = cluster.scores()
        honest = [s for n, s in scores.items() if n not in cluster.freerider_ids]
        freeriders = [s for n, s in scores.items() if n in cluster.freerider_ids]
        assert np.mean(freeriders) < np.mean(honest) - 2.0

    def test_heavier_freeriding_blamed_more(self, small_cluster_factory):
        def mean_freerider_score(degree):
            cluster = small_cluster_factory(
                freerider_fraction=0.25,
                adversary=freerider_policy(degree),
                loss_rate=0.0,
                compensation=0.0,
            )
            cluster.run(until=10.0)
            scores = cluster.scores()
            return float(
                np.mean([s for n, s in scores.items() if n in cluster.freerider_ids])
            )

        mild = mean_freerider_score((0.0, 0.1, 0.1))
        heavy = mean_freerider_score((0.25, 0.4, 0.4))
        assert heavy < mild

    def test_detection_report(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.25, 0.4, 0.4)),
            loss_rate=0.02,
            compensation=0.0,
        )
        cluster.run(until=12.0)
        honest_scores = [
            s for n, s in cluster.scores().items() if n not in cluster.freerider_ids
        ]
        eta = float(np.percentile(honest_scores, 2)) - 0.5
        report = cluster.detection(eta=eta)
        assert report.detection > 0.6
        assert report.false_positives <= 0.1


class TestExpulsion:
    def test_score_based_expulsion_removes_freeriders(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.3, 0.5, 0.5)),
            loss_rate=0.0,
            compensation=0.0,
            expulsion_enabled=True,
            eta=-4.0,
            min_periods_before_expel=8,
        )
        cluster.run(until=15.0)
        expelled = set(cluster.controller.expelled_nodes())
        assert expelled, "nobody was expelled"
        # Expulsions should hit freeriders overwhelmingly.
        wrongful = expelled - cluster.freerider_ids
        assert len(wrongful) <= max(1, 0.2 * len(expelled))

    def test_observation_mode_records_without_enforcing(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.3, 0.5, 0.5)),
            loss_rate=0.0,
            compensation=0.0,
            expulsion_enabled=False,
            eta=-4.0,
            min_periods_before_expel=8,
        )
        cluster.run(until=15.0)
        assert cluster.controller.expelled_nodes()  # recorded
        for node_id in cluster.controller.expelled_nodes():
            assert cluster.network.is_connected(node_id)  # not enforced

    def test_expelled_nodes_stop_receiving_stream(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.3, 0.5, 0.5)),
            loss_rate=0.0,
            compensation=0.0,
            expulsion_enabled=True,
            eta=-4.0,
            min_periods_before_expel=8,
        )
        cluster.run(until=20.0)
        records = cluster.controller.records
        assert records
        node_id, record = next(iter(records.items()))
        node = cluster.nodes[node_id]
        late_chunks = [
            c.chunk_id
            for c in cluster.source.chunks
            if c.created_at > record.time + 2.0
        ]
        owned_late = sum(1 for c in late_chunks if c in node.store)
        assert owned_late <= 0.1 * max(1, len(late_chunks))


class TestAudits:
    def test_audit_of_honest_node_passes(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0, gamma=3.0)
        cluster.run(until=8.0)
        auditor = cluster.nodes[0]
        target = 5
        results = []
        auditor.auditor.start(target, on_complete=results.append)
        cluster.sim.run(until=cluster.sim.now + 15.0)
        assert results, "audit did not complete"
        assert results[0].passed, (
            f"honest node failed audit: fanout H={results[0].fanout_entropy:.2f} "
            f"fanin H={results[0].fanin_entropy:.2f} "
            f"periods={results[0].proposal_count}"
        )

    def test_audit_detects_biased_colluders(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.3,
            adversary=colluder_policy(bias=0.95),
            loss_rate=0.0,
            gamma=3.0,
        )
        cluster.run(until=8.0)
        honest_auditor = next(
            nid for nid in cluster.node_ids if nid not in cluster.freerider_ids
        )
        target = next(iter(cluster.freerider_ids))
        results = []
        cluster.nodes[honest_auditor].auditor.start(target, on_complete=results.append)
        cluster.sim.run(until=cluster.sim.now + 15.0)
        assert results
        assert not results[0].passed_fanout
        assert not results[0].passed

    def test_audit_detects_mitm_via_fanin(self, small_cluster_factory):
        # MITM colluders pass direct cross-checks but their confirm
        # senders concentrate on the coalition (§5.3).
        cluster = small_cluster_factory(
            freerider_fraction=0.3,
            # bias 0: partner selection looks uniform
            adversary=colluder_policy(bias=0.0, man_in_the_middle=True),
            loss_rate=0.0,
            gamma=3.0,
        )
        cluster.run(until=8.0)
        honest_auditor = next(
            nid for nid in cluster.node_ids if nid not in cluster.freerider_ids
        )
        target = next(iter(cluster.freerider_ids))
        results = []
        cluster.nodes[honest_auditor].auditor.start(target, on_complete=results.append)
        cluster.sim.run(until=cluster.sim.now + 15.0)
        assert results
        result = results[0]
        assert not result.passed_fanin or result.unacknowledged > 0 or not result.passed

    def test_forged_history_draws_blames(self, small_cluster_factory):
        # Forging honest names into the history: the alleged receivers
        # deny, so unacknowledged blames pile up (§5.3).
        cluster = small_cluster_factory(
            freerider_fraction=0.3,
            adversary=colluder_policy(bias=0.9, forge_history=True),
            loss_rate=0.0,
            gamma=3.0,
        )
        cluster.run(until=8.0)
        honest_auditor = next(
            nid for nid in cluster.node_ids if nid not in cluster.freerider_ids
        )
        target = next(iter(cluster.freerider_ids))
        results = []
        cluster.nodes[honest_auditor].auditor.start(target, on_complete=results.append)
        cluster.sim.run(until=cluster.sim.now + 15.0)
        assert results
        # Forged partners were never really proposed to.
        assert results[0].unacknowledged > 0.3 * results[0].polled_entries


class TestAttackDetection:
    """Table 2: each attack, alone in a deployment, is caught by the
    verification the paper names for it (biased partner selection is
    ``TestAudits::test_audit_detects_biased_colluders``)."""

    @pytest.mark.parametrize(
        "degree, period_stride, reasons",
        [
            # direct cross-check: f - f̂ from each verifier
            ((0.5, 0, 0), 1, (blames.REASON_FANOUT_DECREASE,)),
            # direct cross-check: missing acks and invalid proposals
            ((0, 0.5, 0), 1, (blames.REASON_NO_ACK, blames.REASON_INVALID_PROPOSAL)),
            # direct verification
            ((0, 0, 0.5), 1, (blames.REASON_PARTIAL_SERVE,)),
            # local audit: too few propose periods in the history
            ((0, 0, 0), 3, ()),
        ],
        ids=["fanout-decrease", "partial-propose", "partial-serve", "decreased-gossip-period"],
    )
    def test_attack_caught_by_its_mechanism(
        self, small_cluster_factory, degree, period_stride, reasons
    ):
        cluster = small_cluster_factory(
            n=40, history_periods=12, gamma=4.8, seed=77, loss_rate=0.0,
            compensation=0.0, freerider_fraction=0.25,
            adversary=freerider_policy(degree, period_stride=period_stride),
        )
        cluster.run(until=10.0)
        if reasons:
            emitted = sum(
                node.engine.blames_by_reason.get(reason, 0.0)
                for node in cluster.nodes.values()
                for reason in reasons
            )
            recorded = [
                (target, max(record.blame_total, 0.0))
                for node in cluster.nodes.values()
                for target, record in node.manager.records.items()
            ]
            on_freeriders = sum(v for t, v in recorded if t in cluster.freerider_ids)
            assert emitted > 0
            assert on_freeriders > 0.8 * sum(v for _t, v in recorded)
        else:
            auditor = next(n for n in cluster.node_ids if n not in cluster.freerider_ids)
            results = []
            cluster.nodes[auditor].auditor.start(
                next(iter(cluster.freerider_ids)), on_complete=results.append
            )
            cluster.sim.run(until=cluster.sim.now + 15.0)
            assert results and not results[0].passed_period_count


class TestColluderCoverUps:
    def test_cover_up_reduces_coalition_blames(self, small_cluster_factory):
        degree = (0.2, 0.4, 0.4)

        def freerider_blame_mean(colluding):
            cluster = small_cluster_factory(
                freerider_fraction=0.3,
                adversary=(
                    colluder_policy(degree, bias=0.8)
                    if colluding
                    else freerider_policy(degree)
                ),
                loss_rate=0.0,
                compensation=0.0,
            )
            cluster.run(until=10.0)
            scores = cluster.scores()
            return float(
                np.mean([s for n, s in scores.items() if n in cluster.freerider_ids])
            )

        independent = freerider_blame_mean(colluding=False)
        covered = freerider_blame_mean(colluding=True)
        # Coalition members serve mostly each other and cover each other
        # up, so direct verification blames them far less.
        assert covered > independent


class TestDegradedNodes:
    def test_degraded_nodes_blamed_more(self, small_cluster_factory):
        cluster = small_cluster_factory(
            degraded_fraction=0.2,
            degraded_loss=0.25,
            loss_rate=0.01,
            compensation=0.0,
        )
        cluster.run(until=10.0)
        scores = cluster.scores()
        degraded = [s for n, s in scores.items() if n in cluster.degraded_ids]
        healthy = [
            s
            for n, s in scores.items()
            if n not in cluster.degraded_ids and n not in cluster.freerider_ids
        ]
        assert np.mean(degraded) < np.mean(healthy)


class TestSeededDeterminismGolden:
    """Pin the exact trace of a fixed-seed deployment.

    The fast simulation kernel (inline heap entries, block-buffered
    samplers, type-keyed dispatch) is required to be bit-for-bit
    deterministic; these golden counters catch any refactor that
    silently perturbs event ordering or RNG streams.  An *intentional*
    protocol-behaviour change should update the constants (and say so in
    its changelog entry).
    """

    def test_fixed_seed_trace_is_bit_for_bit_stable(self, small_cluster_factory):
        cluster = small_cluster_factory()  # seed=42, loss_rate=0.03
        cluster.run(until=5.0)
        trace = cluster.trace
        assert cluster.sim.events_processed == 19339
        assert trace.sent_count() == 15151
        assert trace.delivered_count() == 14504
        assert trace.lost_count() == 470
        assert trace.category_bytes("data") == 9515255
        assert trace.category_bytes("verification") == 331606
        assert trace.category_bytes("reputation") == 65676
        assert trace.sent_count("Serve") == 4482
        assert trace.sent_count("Confirm") == 3308

    # The two adversarial traces: behaviours draw from their node's
    # stream and policies from "adversary", so how the config *selects*
    # an attack must never move these (pinned at the PR 15 commit).
    def test_fixed_seed_freerider_trace(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.25, 0.3, 0.3), period_stride=2),
        )
        cluster.run(until=5.0)
        trace = cluster.trace
        assert cluster.sim.events_processed == 16789
        assert trace.sent_count() == 13590
        assert trace.delivered_count() == 12960
        assert trace.lost_count() == 428
        assert trace.sent_count("Serve") == 4358
        assert trace.sent_count("Confirm") == 2447

    def test_fixed_seed_colluder_trace(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=colluder_policy(
                (0.25, 0.3, 0.3),
                bias=0.6,
                man_in_the_middle=True,
                forge_history=True,
            ),
            p_audit=0.1,
        )
        cluster.run(until=5.0)
        trace = cluster.trace
        assert cluster.sim.events_processed == 16905
        assert trace.sent_count() == 13439
        assert trace.delivered_count() == 12917
        assert trace.lost_count() == 425
        assert trace.sent_count("Serve") == 4275
        assert trace.sent_count("Confirm") == 2470


#: what a node keeps between events, bar the h-period history, the chunk
#: store and ``_pending_chunks`` (see the strict xfail below).
NODE_STATE = ("_fresh", "_blame_outbox", "_sent_proposals", "_offers", "_naked_requests")


def engine_state(engine):
    """Every container attribute of a verification engine, by name."""
    return {
        name: value
        for name, value in vars(engine).items()
        if isinstance(value, (dict, set, list, deque))
    }


class TestBoundedState:
    """LiFTinG is lightweight because a node's verification state lives
    for one timeout (§5.2): in steady state it must not grow with the
    length of the run."""

    @pytest.fixture(scope="class")
    def steady_run(self):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=40, chunk_size=1400)
        cluster = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=3))
        census = {}
        for until in (6.0, 12.0, 18.0):
            cluster.run(until=until)
            sizes = census[until] = dict.fromkeys(NODE_STATE, 0)
            for node in cluster.nodes.values():
                for name in NODE_STATE:
                    sizes[name] += len(getattr(node, name))
                for name, value in engine_state(node.engine).items():
                    sizes[name] = sizes.get(name, 0) + len(value)
        return cluster, census

    def test_transient_state_does_not_grow_with_run_length(self, steady_run):
        _cluster, census = steady_run
        for name, early in census[6.0].items():
            assert census[18.0][name] <= 1.5 * early, (name, census)

    def test_engine_keeps_no_other_container(self, steady_run):
        cluster, _census = steady_run
        reasons = {v for k, v in vars(blames).items() if k.startswith("REASON_")}
        assert len(reasons) == 7
        for node in cluster.nodes.values():
            assert set(engine_state(node.engine)) == {
                "_pending_acks",
                "_confirm_rounds",
                "_pending_requests",
                "blames_by_reason",  # a diagnostic, bounded by its keys
            }
            assert set(node.engine.blames_by_reason) <= reasons

    def test_state_per_node_does_not_rise_with_n(self):
        """Per-node state is bounded, so the tracemalloc peak over
        construction + warm-up, per node, falls as fixed costs amortise
        (about 14.5 / 11.2 / 10.9 KiB at seed 1)."""
        points = run_scenario(
            "scaling", sizes=(40, 200, 2000), duration=0.5, warmup=0.25
        ).metrics["points"]
        first, last = points[0], points[-1]
        assert (first["n"], last["n"]) == (40, 2000)
        assert 0.0 < last["peak_mem_kib_per_node"] <= first["peak_mem_kib_per_node"], points

    @pytest.mark.xfail(
        strict=True,
        reason="request windows are keyed by proposal_id and a retry reuses the "
        "alternative proposer's id: the overwritten window's chunks stay marked "
        "pending for ever (ROADMAP item 8)",
    )
    def test_every_old_pending_mark_is_covered_by_an_open_window(self, steady_run):
        cluster, _census = steady_run
        chunks = cluster.source.chunks
        now = cluster.sim.now
        orphans = []
        for node in cluster.nodes.values():
            watched = set()
            for window in node.engine._pending_requests.values():
                watched |= window.expected
            orphans += [
                (node.node_id, chunk_id)
                for chunk_id in node._pending_chunks - watched
                if now - chunks[chunk_id].created_at > 2.0
            ]
        assert orphans == []
