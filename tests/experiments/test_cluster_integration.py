"""End-to-end integration: freeriders, colluders, audits, expulsion."""

import gc
import sys
from collections import deque
from dataclasses import replace
from types import MethodType

import numpy as np
import pytest

from repro import adversary
from repro.config import planetlab_params
from repro.core import blames
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.gossip.chunks import SOURCE_ID
from repro.scenarios import run_scenario
from repro.sim.engine import DEFERRED
from repro.wire import WIRE_MESSAGE_CLASSES

from object_fields import fields_of


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
        assert cluster.sim.events_processed == 19617
        assert trace.sent_count() == 15332
        assert trace.delivered_count() == 14681
        assert trace.lost_count() == 477
        assert trace.category_bytes("data") == 9523924
        assert trace.category_bytes("verification") == 336344
        assert trace.category_bytes("reputation") == 66300
        assert trace.sent_count("Serve") == 4486
        assert trace.sent_count("Confirm") == 3356

    # The two adversarial traces: behaviours draw from their node's
    # stream and policies from "adversary", so how the config *selects*
    # an attack must never move these.
    def test_fixed_seed_freerider_trace(self, small_cluster_factory):
        cluster = small_cluster_factory(
            freerider_fraction=0.25,
            adversary=freerider_policy((0.25, 0.3, 0.3), period_stride=2),
        )
        cluster.run(until=5.0)
        trace = cluster.trace
        assert cluster.sim.events_processed == 16710
        assert trace.sent_count() == 13521
        assert trace.delivered_count() == 12903
        assert trace.lost_count() == 427
        assert trace.sent_count("Serve") == 4320
        assert trace.sent_count("Confirm") == 2395

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
        assert cluster.sim.events_processed == 17138
        assert trace.sent_count() == 13657
        assert trace.delivered_count() == 13116
        assert trace.lost_count() == 432
        assert trace.sent_count("Serve") == 4322
        assert trace.sent_count("Confirm") == 2501


def engine_state(engine):
    """Every container attribute of a verification engine, by name."""
    return {
        name: value
        for name, value in fields_of(engine).items()
        if isinstance(value, (dict, set, list, deque))
    }


BLAME_REASONS = {v for k, v in vars(blames).items() if k.startswith("REASON_")}


def long_lived(node, cluster):
    """What a node keeps for good, by ``Owner.attribute``: (size, bound).

    Everything else a node or a LiFTinG part it hosts holds is transient
    (§5.2: a verification lives for one timeout).  The counters in
    ``node.stats`` are fields, not containers.
    """
    sizes = {
        # the stream itself: one entry per chunk emitted
        "GossipNode.store": (len(node.store), cluster.source.emitted),
        # §5.3: a ring of the n_h periods an audit reads, plus two
        "GossipNode.history": (len(node.history.records()), node.lifting.history_periods + 2),
        # one handler per wire kind
        "GossipNode.dispatch_table": (len(node.dispatch_table), len(WIRE_MESSAGE_CLASSES)),
        # the shared membership view: one entry per node
        "GossipNode.sampler": (len(node.sampler), cluster.config.gossip.n),
    }
    if node.engine is not None:
        # a diagnostic: one total per blame reason
        sizes["VerificationEngine.blames_by_reason"] = (
            len(node.engine.blames_by_reason),
            len(BLAME_REASONS),
        )
    if node.manager is not None:
        # §5.1: one score record per node this one manages
        sizes["ReputationManager.records"] = (
            len(node.manager.records),
            len(node.assignment.managed_by(node.node_id)),
        )
    return sizes


def census(cluster):
    """The summed size of every other container of every node, and of
    the engine, auditor, score reader and manager it hosts, found by
    ``fields_of``: the transient state a run holds at this instant."""
    sizes = {}
    for node in cluster.nodes.values():
        kept = long_lived(node, cluster)
        for name, (size, bound) in kept.items():
            assert size <= bound, (node.node_id, name, size, bound)
        parts = (node, node.engine, node.auditor, node.score_reader, node.manager)
        for owner in parts:
            if owner is None:
                continue
            for attribute, value in fields_of(owner).items():
                name = f"{type(owner).__name__}.{attribute}"
                if name in kept or not hasattr(type(value), "__len__"):
                    continue
                sizes[name] = sizes.get(name, 0) + len(value)
    return sizes


def deep_size(roots, shared=()):
    """Bytes of everything reachable from ``roots``, each object once;
    ints (node and chunk ids the run holds anyway), types and the
    ``shared`` objects excluded.  A bound method counts itself and its
    owner, not its function: code is its class's."""
    seen = {id(obj) for obj in shared}
    total = 0
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (int, type)):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, MethodType):
            stack.append(obj.__self__)
        else:
            stack.extend(gc.get_referents(obj))
    return total


class TestBoundedState:
    """LiFTinG is lightweight because a node's verification state lives
    for one timeout (§5.2): in steady state it must not grow with the
    length of the run."""

    @pytest.fixture(scope="class")
    def steady_run(self):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=40, chunk_size=1400)
        cluster = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=3))
        sizes = {}
        for until in (6.0, 12.0, 18.0):
            cluster.run(until=until)
            sizes[until] = census(cluster)
        return cluster, sizes

    def test_transient_state_does_not_grow_with_run_length(self, steady_run):
        _cluster, sizes = steady_run
        assert "GossipNode._awaited" in sizes[6.0]
        for name, early in sizes[6.0].items():
            assert sizes[18.0][name] <= 1.5 * early, (name, sizes)

    def test_engine_keeps_no_other_container(self, steady_run):
        cluster, _sizes = steady_run
        assert len(BLAME_REASONS) == 7
        for node in cluster.nodes.values():
            assert set(engine_state(node.engine)) == {
                "_pending_acks",
                "_confirm_rounds",
                "blames_by_reason",  # a diagnostic, bounded by its keys
            }
            assert set(node.engine.blames_by_reason) <= BLAME_REASONS

    def test_in_flight_work_holds_references(self, steady_run):
        """What waits for a timeout costs its references, not containers
        of its own: an open confirm round keeps its witnesses and who
        answered as tuples (~226 B a round here, ~792 with a set of
        waited-on witnesses), a calendar entry is one tuple, and a
        node's pending timers of one kind share one bound callback."""
        cluster, _sizes = steady_run
        rounds = [
            round_state
            for node in cluster.nodes.values()
            for open_rounds in node.engine._confirm_rounds.values()
            for round_state in open_rounds
        ]
        assert rounds
        assert deep_size(rounds) / len(rounds) <= 300
        timeline = cluster.sim.timeline
        entries = [
            entry
            for bucket in (timeline.cur[timeline.cur_pos :], *timeline._ring)
            for entry in bucket
        ]
        assert entries and all(type(entry) is tuple for entry in entries)
        # owner and function -> the callback objects its pending calls hold
        callbacks = {}
        for entry in entries:
            callback = entry[2]
            if entry[3] is DEFERRED and hasattr(callback, "__self__"):
                key = (id(callback.__self__), callback.__func__.__qualname__)
                callbacks.setdefault(key, []).append(callback)
        assert all(all(c is held[0] for c in held) for held in callbacks.values())
        # each kind has an owner with more than one pending call of it
        assert {name for (_owner, name), held in callbacks.items() if len(held) > 1} >= {
            "GossipNode._close_window",
            "GossipNode._answer_confirm",
            "VerificationEngine._finish_confirm_round",
        }

    def test_a_node_is_its_fields(self, steady_run):
        """Every object built per node or per node-period keeps its
        fields in slots, with no ``__dict__`` (past 30 keys CPython
        gives each instance a table of its own), and a freshly built
        node costs ~8.6 KiB of its own here (~9.8 with instance dicts)."""
        cluster, _sizes = steady_run
        for node in cluster.nodes.values():
            parts = [
                node,
                node.engine,
                node.manager,
                *node.manager.records.values(),
                node.auditor,
                node.score_reader,
                node.history,
                *node.history.records(),
                node.stats,
                node.behavior,  # every node here is honest
            ]
            assert [type(part).__name__ for part in parts if hasattr(part, "__dict__")] == []
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=40, chunk_size=1400)
        built = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=3))
        nodes = list(built.nodes.values())
        # What a peer holds too (the host, the parameters, the shared
        # callbacks) is not this node's, nor is the deployment.
        sizes = [
            deep_size([node], [*fields_of(peer).values(), built.deployment])
            for node, peer in zip(nodes, nodes[1:] + nodes[:1])
        ]
        assert sum(sizes) / len(sizes) <= 9 * 1024

    @pytest.fixture(scope="class")
    def long_run(self):
        """40 nodes run to 30 s: the history ring is full."""
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=40, chunk_size=1400)
        cluster = SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, seed=3))
        cluster.run(until=30.0)
        return cluster

    def test_history_holds_proposals_by_reference(self, long_run):
        """With the ring full (n_h + 2 = 52 periods of 0.5 s), a node's
        local history keeps references to what it was sent, not copies:
        ~107 KiB per node here (970 with a fresh set per received
        proposal and a tuple per Confirm)."""
        histories = [node.history for node in long_run.nodes.values()]
        assert all(len(h.records()) == h.max_periods for h in histories)
        assert deep_size(histories) / len(histories) <= 250 * 1024
        # Each id names a tuple both sides still hold, so equal ids mean
        # the same object: the receiver keeps the proposer's own tuple.
        proposed = {
            id(record.proposal[1])
            for h in histories
            for record in h.records()
            if record.proposal is not None
        }
        received = [
            chunk_ids
            for h in histories
            for record in h.records(last=10)
            for chunk_ids in record.received_proposals.values()
            if type(chunk_ids) is tuple
        ]
        assert received and all(id(chunk_ids) in proposed for chunk_ids in received)

    def test_chunk_store_costs_bytes_not_objects(self, long_run):
        """The chunk store is the one per-node structure that grows with
        the run, so it keeps a chunk in two unboxed columns, 16 bytes,
        plus its share of a 64-slot page: ~18.4 bytes per owned chunk
        here (~107 with two dict entries and a boxed float per chunk)."""
        stores = [node.store for node in long_run.nodes.values()]
        owned = sum(len(store) for store in stores)
        assert owned >= 0.95 * len(stores) * long_run.source.emitted
        assert deep_size(stores) / owned <= 20

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


class TestQuiesce:
    """Stop the stream and every transient container drains: each entry
    is deleted by the event that ends what it waits for, so no fault
    (a lost serve, a retry, a silent proposer) leaves state behind that
    no rule cleans.  The source is muted at 12 s and the run taken to
    72 s, far past twice the longest timeout plus two periods."""

    @pytest.fixture(scope="class", params=[True, False], ids=["lifting", "no-lifting"])
    def quiesced(self, request):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=40, chunk_size=1400)
        cluster = SimCluster(
            ClusterConfig(gossip=gossip, lifting=lifting, seed=3, lifting_enabled=request.param)
        )
        cluster.run(until=12.0)
        cluster.network.disconnect(SOURCE_ID)
        cluster.run(until=72.0)
        return cluster

    def test_every_transient_container_drains(self, quiesced):
        sizes = census(quiesced)
        assert {name: size for name, size in sizes.items() if size} == {}
        # The census sees every transient container, slots or not.
        lifting = {
            "Auditor._active",
            "Auditor.results",
            "ScoreReader._queries",
            "VerificationEngine._confirm_rounds",
            "VerificationEngine._pending_acks",
        }
        assert set(sizes) == {
            "GossipNode._awaited",
            "GossipNode._blame_outbox",
            "GossipNode._fresh",
            "GossipNode._offers",
            "GossipNode._sent_proposals",
            *(lifting if quiesced.config.lifting_enabled else ()),
        }
