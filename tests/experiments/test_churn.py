"""Churn-tolerant membership, end to end (the PR's acceptance property).

The headline claim: under scripted crash/restart churn, an honest node
that restarts within the suspicion window is NEVER expelled, while a
true freerider in the *same run* still is.  One deterministic deployment
(module-scoped — ~2 s of wall clock) backs the whole class; the cheaper
leave/rejoin edge cases run on tiny unstarted clusters.
"""

from dataclasses import replace

import pytest

from repro import adversary
from repro.config import FreeriderDegree, planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.gossip.protocol import _Window
from repro.membership.base import STATUS_EXPELLED, STATUS_LEFT
from repro.membership.failure_detector import FailureDetectorParams
from repro.faults import FaultSchedule

# Long enough for the *last* restarting victim to re-confirm the
# expelled freeriders dead: readmission purges peers' stale ack
# expectations (no cross-incarnation blame), which puts the late-run
# suspicions about a period later than they would otherwise fall.
DURATION = 16.0


def make_cluster(n=30, **changes) -> SimCluster:
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=n, chunk_size=1400)
    kwargs = dict(
        seed=3,
        loss_rate=0.04,
        freerider_fraction=0.15,
        adversary=adversary.spec("freerider", degree=(0.25,) * 3),
        expulsion_enabled=True,
        failure_detector=FailureDetectorParams(),
    )
    kwargs.update(changes)
    return SimCluster(ClusterConfig(gossip=gossip, lifting=lifting, **kwargs))


@pytest.fixture(scope="module")
def churn_run():
    """30 nodes, 4 honest victims crash-restarting (2 s downtime, inside
    the 4 s suspicion window), freeriders untouched, run past the
    expulsion grace period."""
    cluster = make_cluster()
    victims = sorted(cluster.honest_ids)[:4]
    cluster.attach_faults(FaultSchedule.churn(victims, DURATION, downtime=2.0))
    cluster.run(until=DURATION)
    return cluster, victims


class TestAcceptance:
    def test_restarting_honest_nodes_never_expelled(self, churn_run):
        cluster, victims = churn_run
        expelled = set(cluster.controller.expelled_nodes())
        assert not expelled & set(victims)
        assert not expelled & cluster.honest_ids  # no wrongful expulsion at all

    def test_freeriders_still_expelled_in_same_run(self, churn_run):
        cluster, _ = churn_run
        expelled = set(cluster.controller.expelled_nodes())
        assert cluster.freerider_ids, "config must include freeriders"
        assert cluster.freerider_ids <= expelled

    def test_victims_were_actually_suspected_and_refuted(self, churn_run):
        cluster, victims = churn_run
        summary = cluster.churn_summary()
        # The protection was exercised, not vacuous: every victim's
        # outage raised a suspicion, every restart refuted one.
        assert summary["crashes"] == len(victims)
        assert summary["restarts"] == len(victims)
        assert summary["suspicions"] >= len(victims)
        assert summary["refutations"] >= len(victims)
        assert summary["confirmed_dead"] == 0

    def test_quarantine_protected_the_suspects(self, churn_run):
        cluster, _ = churn_run
        summary = cluster.churn_summary()
        assert summary["quarantines_started"] > 0
        assert summary["quarantines_discarded"] > 0
        # Refuted suspicion leaves nothing pending on any *live* host.
        # Expelled freeriders' managers never observe the refutation
        # (they are disconnected); their frozen records have no
        # authority and are allowed to stay open.
        open_on_live_hosts = [
            (host, record.target)
            for host, node in cluster.nodes.items()
            if node.manager is not None
            and not cluster.controller.is_expelled(host)
            for record in node.manager.records.values()
            if record.suspected
        ]
        assert open_on_live_hosts == []

    def test_recovery_delay_measured(self, churn_run):
        cluster, _ = churn_run
        summary = cluster.churn_summary()
        assert summary["mean_recovery_delay"] is not None
        assert 0.0 <= summary["mean_recovery_delay"] < 4.0 * 0.5  # window

    def test_membership_converged_back(self, churn_run):
        cluster, victims = churn_run
        # Every victim is back in the directory, unsuspected.
        for node in victims:
            assert cluster.membership.contains(node)
        assert cluster.membership.suspected_nodes() == []


class TestLeaveRejoinEdgeCases:
    """Satellite: graceful-departure corner cases on an unstarted cluster."""

    @pytest.fixture
    def cluster(self):
        return make_cluster(n=12, freerider_fraction=0.0)

    def test_double_leave_is_noop(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        assert cluster.leave(node)
        assert not cluster.leave(node)
        assert cluster.churn_monitor.leaves == 1

    def test_leave_of_a_running_node_is_announced_once_and_raises_no_suspicion(self, cluster):
        cluster.run(until=2.0)  # every detector is up and probing
        node = sorted(cluster.honest_ids)[0]
        farewells = cluster.trace.sent_count("MembershipUpdate")
        assert cluster.leave(node)
        # One RANK_LEFT update, fanned out to f peers...
        farewells = cluster.trace.sent_count("MembershipUpdate") - farewells
        assert farewells == cluster.config.gossip.fanout
        # ...and the shared directory evicts the node at once: nobody
        # probes it again, so the departure never reads as a failure.
        cluster.run(until=6.0)
        summary = cluster.churn_summary()
        assert (summary["leaves"], summary["suspicions"]) == (1, 0)
        assert cluster.membership.status_of(node) == STATUS_LEFT

    def test_leave_then_rejoin_bumps_incarnation(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        cluster.leave(node)
        assert cluster.membership.status_of(node) == STATUS_LEFT
        assert cluster.rejoin(node)
        assert cluster.membership.contains(node)
        assert cluster.membership.incarnation_of(node) >= 1
        assert cluster.churn_monitor.rejoins == 1

    def test_rejoin_of_expelled_node_refused(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        cluster.controller.expel(node, "scores")
        assert not cluster.rejoin(node)
        assert cluster.membership.status_of(node) == STATUS_EXPELLED
        assert cluster.churn_monitor.rejoins_refused == 1

    def test_leave_during_expulsion_vote_still_lands(self, cluster):
        # The node departs gracefully while its managers are mid-vote;
        # the quorum lands anyway — expulsion is terminal and the ledger
        # refuses the later rejoin.
        node = sorted(cluster.honest_ids)[0]
        assert cluster.leave(node)
        cluster.controller.expel(node, "quorum reached after leave")
        assert cluster.membership.status_of(node) == STATUS_EXPELLED
        assert not cluster.rejoin(node)

    def test_fault_crash_of_already_left_node_only_flags_plane(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        plane = cluster.attach_faults(FaultSchedule())
        cluster.leave(node)
        cluster._crash(node, plane)
        # No double-disconnect, no spurious crash metric: the node had
        # already deregistered; only the fault-plane flag flips.
        assert cluster.churn_monitor.crashes == 0
        assert node in plane.crashed
        assert cluster.membership.status_of(node) == STATUS_LEFT

    def test_scripted_restart_of_an_expelled_node_is_refused(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        plane = cluster.attach_faults(FaultSchedule())
        cluster._crash(node, plane)
        cluster.controller.expel(node, "quorum reached while it was down")
        cluster._restart(node, plane)
        assert cluster.churn_monitor.rejoins_refused == 1
        assert cluster.churn_monitor.restarts == 0
        assert node in plane.crashed  # the plane keeps it flagged down
        assert not cluster.network.is_connected(node)

    def test_restart_of_never_crashed_node_is_noop(self, cluster):
        node = sorted(cluster.honest_ids)[0]
        plane = cluster.attach_faults(FaultSchedule())
        cluster._restart(node, plane)
        assert cluster.churn_monitor.restarts == 0
        assert cluster.membership.contains(node)


class TestReadmissionRemap:
    """Satellite: a bumped-incarnation readmit must start with empty
    transient state and purge every peer's stale ack expectations — no
    state (or the blames it would draw) leaks across incarnations."""

    @pytest.fixture
    def cluster(self):
        return make_cluster(n=12, freerider_fraction=0.0)

    def test_readmit_starts_with_empty_transient_state(self, cluster):
        node_id = sorted(cluster.honest_ids)[0]
        node = cluster.nodes[node_id]
        # Dirty the first incarnation's transient containers.
        node._fresh[7] = 3
        node._awaited[9] = _Window(proposer=3, proposal_id=1, chunk_ids=(9,))
        node._blame_outbox[4] = 2.0

        cluster.leave(node_id)
        assert cluster.rejoin(node_id)

        assert cluster.membership.incarnation_of(node_id) >= 1
        assert node._fresh == {}
        assert node._awaited == {}
        assert node._blame_outbox == {}

    def test_rejoin_without_detector_keeps_transient_state(self):
        # No detector, no incarnation: a graceful leave/rejoin is the
        # same node coming back, in-flight state and all.
        cluster = make_cluster(n=12, freerider_fraction=0.0, failure_detector=None)
        node = cluster.nodes[0]
        window = node._awaited[9] = _Window(proposer=3, proposal_id=1, chunk_ids=(9,))
        node._blame_outbox[4] = 2.0
        cluster.leave(0)
        assert cluster.rejoin(0)
        assert node._awaited == {9: window}
        assert node._blame_outbox == {4: 2.0}

    def test_readmit_purges_peers_stale_ack_rows(self, cluster):
        victim, peer_a, peer_b = sorted(cluster.honest_ids)[:3]
        # Two peers served the victim's first incarnation and still
        # expect acks; a third requester's expectation must survive.
        cluster.nodes[peer_a].engine.on_serve_sent(victim, 101)
        cluster.nodes[peer_b].engine.on_serve_sent(victim, 102)
        cluster.nodes[peer_b].engine.on_serve_sent(peer_a, 103)
        assert cluster.nodes[peer_a].engine.pending_ack_count == 1
        assert cluster.nodes[peer_b].engine.pending_ack_count == 2

        cluster.leave(victim)
        assert cluster.rejoin(victim)

        assert victim not in cluster.nodes[peer_a].engine._pending_acks
        assert victim not in cluster.nodes[peer_b].engine._pending_acks
        assert cluster.nodes[peer_a].engine.pending_ack_count == 0
        # The unrelated expectation against peer_a is untouched.
        assert cluster.nodes[peer_b].engine.pending_ack_count == 1

    def test_readmitted_node_draws_no_blame_from_stale_acks(self, cluster):
        victim, peer = sorted(cluster.honest_ids)[:2]
        engine = cluster.nodes[peer].engine
        engine.on_serve_sent(victim, 55)
        cluster.leave(victim)
        assert cluster.rejoin(victim)
        # Push the clock past the ack timeout: without the purge this
        # sweep would blame the *new* incarnation for the old one's debt.
        cluster.sim.run(until=cluster.nodes[peer].lifting.ack_timeout + 1.0)
        engine.on_period_tick()
        from repro.core.blames import REASON_NO_ACK

        assert engine.blames_by_reason[REASON_NO_ACK] == 0.0
