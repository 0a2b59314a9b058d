"""The rules both planes share, pinned once on a fake host.

A :class:`~repro.deployment.Deployment` needs nothing from its host but
a clock and three fabric names, so every rule ``SimCluster`` and
``RuntimeCluster`` inherit from it — who may convict, who may report,
what its freeriders run, what a crash and a restart do — is checked
here without a simulator or a socket.  Nodes are built, never started.
"""

import asyncio
from dataclasses import fields, replace

import pytest

from repro import adversary
from repro.adversary import BehaviorPolicy
from repro.config import FreeriderDegree, planetlab_params
from repro.core.auditlog import AuditLog
from repro.deployment import Deployment, assign_roles
from repro.experiments.cluster import ClusterConfig
from repro.gossip.protocol import _SentProposal, _Window
from repro.membership.base import STATUS_ALIVE, STATUS_SUSPECT
from repro.membership.failure_detector import FailureDetectorParams
from repro.nodes.behavior import HonestBehavior
from repro.nodes.freerider import FreeriderBehavior
from repro.runtime import RuntimeCluster, RuntimeConfig
from repro.faults import FaultPlane, FaultSchedule
from repro.util.rng import SeedSequenceFactory
from repro.wire import Propose, Request, Serve

N = 6
SEED = 5


class FakeHost:
    """A hand-set clock and a fabric that records what it is asked."""

    def __init__(self):
        self.now = 0.0
        self.timeline = self
        self.down = set()
        self.expelled = []

    def clock(self):
        return self.now

    def call_later(self, delay, fn, *args):
        return None

    def send_many(self, src, dsts, message, kind):
        return len(dsts)

    def is_connected(self, node_id):
        return node_id not in self.down and node_id not in self.expelled

    def disconnect(self, node_id):
        self.down.add(node_id)

    def expel(self, node_id):
        self.expelled.append(node_id)


def make_deployment(host=None, **kwargs):
    gossip, lifting = planetlab_params()
    deployment = Deployment(
        host or FakeHost(),
        SeedSequenceFactory(SEED),
        replace(gossip, n=N, fanout=3, source_fanout=3),
        replace(lifting, managers=3),
        **kwargs,
    )
    for node_id in deployment.node_ids:
        deployment.add_node(node_id)
    return deployment


@pytest.fixture
def deployment():
    return make_deployment(
        expulsion_enabled=True, failure_detector=FailureDetectorParams()
    )


#: (seed, n, freerider_fraction, degraded_fraction) -> the role sets
#: ``SimCluster`` drew before the shuffle moved here.
ROLE_TABLE = [
    ((0, 8, 0.25, 0.0), {4, 5}, {0, 1, 2, 3, 6, 7}, set()),
    ((3, 10, 0.2, 0.25), {3, 7}, {0, 1, 2, 4, 5, 6, 8, 9}, {4, 6}),
    ((7, 12, 0.0, 0.5), set(), set(range(12)), {0, 2, 3, 4, 8, 10}),
    ((42, 9, 0.5, 0.0), {0, 2, 3, 8}, {1, 4, 5, 6, 7}, set()),
]


@pytest.mark.parametrize("args, freeriders, honest, degraded", ROLE_TABLE)
def test_assign_roles_draws_the_pinned_sets(args, freeriders, honest, degraded):
    seed, n, freerider_fraction, degraded_fraction = args
    roles = assign_roles(
        SeedSequenceFactory(seed), n, freerider_fraction, degraded_fraction
    )
    assert roles == (freeriders, honest, degraded)


class RecordingPolicy(BehaviorPolicy):
    name = "recording"

    def __init__(self):
        self.contexts = []
        self.built = {}

    def prepare(self, ctx):
        self.contexts.append(ctx)

    def build(self, node_id):
        self.built[node_id] = FreeriderBehavior(FreeriderDegree.uniform(0.5))
        return self.built[node_id]


class TestAdversaryArming:
    """The one ``create`` → ``prepare`` → ``build`` site of either plane."""

    def test_freeriders_run_the_policy_and_the_rest_are_honest(self, monkeypatch):
        policy = RecordingPolicy()
        monkeypatch.setattr("repro.deployment.create", lambda kind, params: policy)
        deployment = make_deployment(
            freerider_fraction=0.5, adversary=adversary.spec("recording")
        )
        assert deployment.adversary_policy is policy
        assert len(deployment.freerider_ids) == 3
        assert set(policy.built) == deployment.freerider_ids
        for node_id, node in deployment.nodes.items():
            if node_id in deployment.freerider_ids:
                assert node.behavior is policy.built[node_id]
            else:
                assert type(node.behavior) is HonestBehavior

    def test_prepare_runs_once_with_the_roles_and_the_adversary_stream(
        self, monkeypatch
    ):
        policy = RecordingPolicy()
        monkeypatch.setattr("repro.deployment.create", lambda kind, params: policy)
        deployment = make_deployment(
            freerider_fraction=0.5, adversary=adversary.spec("recording")
        )
        (ctx,) = policy.contexts
        assert ctx.freerider_ids == deployment.freerider_ids
        assert ctx.honest_ids == deployment.honest_ids
        expected = SeedSequenceFactory(SEED).generator("adversary")
        assert list(ctx.rng.random(4)) == list(expected.random(4))

    def test_spec_parameters_reach_the_registered_policy(self):
        degree = (0.25, 0.3, 0.3)
        deployment = make_deployment(
            freerider_fraction=0.5,
            adversary=adversary.spec("freerider", degree=degree, period_stride=2),
        )
        for node_id in deployment.freerider_ids:
            behavior = deployment.nodes[node_id].behavior
            assert type(behavior) is FreeriderBehavior
            assert (behavior.degree.as_tuple(), behavior.period_stride()) == (degree, 2)

    def test_unknown_policy_raises_before_any_node_exists(self, monkeypatch):
        constructed = []
        monkeypatch.setattr(
            "repro.deployment.GossipNode", lambda **kwargs: constructed.append(kwargs)
        )
        with pytest.raises(ValueError, match="available"):
            make_deployment(freerider_fraction=0.5, adversary=adversary.spec("nope"))
        assert constructed == []

    def test_empty_adversary_means_everyone_is_honest(self):
        deployment = make_deployment(freerider_fraction=0.5)
        assert deployment.adversary_policy is None
        assert deployment.freerider_ids  # the role split still happens
        assert all(
            type(node.behavior) is HonestBehavior
            for node in deployment.nodes.values()
        )

    def test_both_configs_carry_the_adversary_as_one_field(self):
        # A new switch on either config has to argue for itself here.
        assert len(fields(ClusterConfig)) <= 16
        assert len(fields(RuntimeConfig)) <= 20
        for config in (ClusterConfig, RuntimeConfig):
            names = [f.name for f in fields(config)]
            assert [n for n in names if "adversar" in n] == ["adversary"]

    def test_node_state_is_not_pooled_from_outside(self):
        # Transient node state is plain containers the node owns: no
        # plane hands it a pool, a slot or a registry to remember.
        import inspect

        import repro.core
        from repro.gossip.protocol import GossipNode

        parameters = inspect.signature(GossipNode.__init__).parameters
        assert not {"state_pool", "state_slot"} & set(parameters)
        assert not {"DenseIdRegistry", "ProtocolStatePool", "SlotRows"} & set(
            repro.core.__all__
        )


    def test_manager_records_are_plain_objects_no_plane_supplies(self):
        # State takes the representation its reader needs: a manager
        # walks M records in a loop, so they are slotted objects it
        # builds itself, and nothing per-node is fed from outside.
        import inspect

        import repro.core
        from repro.core.reputation import ReputationManager
        from repro.gossip.protocol import GossipNode

        parameters = inspect.signature(GossipNode.__init__).parameters
        assert not {"reputation_pool", "chunk_created_at"} & set(parameters)
        assert "pool" not in inspect.signature(ReputationManager.__init__).parameters
        assert "ReputationPool" not in repro.core.__all__
        manager = make_deployment().nodes[0].manager
        assert type(manager.records) is dict
        assert list(manager.records) == list(manager.assignment.managed_by(0))
        assert not any(hasattr(r, "__dict__") for r in manager.records.values())
        # Expulsion is rare: no vote set exists until a vote is cast.
        assert all(r.expel_votes is None for r in manager.records.values())
        target = next(iter(manager.records))
        manager.on_expel_vote(4, target)
        assert manager.records[target].expel_votes == {4}


class TestRetryAsksTheHost:
    """A lost serve is re-requested only from a proposer the *host*
    reports reachable — on every plane, not just under the simulator."""

    @pytest.mark.parametrize("alternative_down", [True, False])
    def test_retry_skips_a_proposer_the_host_reports_down(self, alternative_down):
        host = FakeHost()
        sent, timers = [], []
        host.send_many = lambda src, dsts, message, kind: sent.extend(
            (dst, message) for dst in dsts
        ) or len(dsts)
        host.call_later = lambda delay, fn, *args: timers.append((fn, args))
        node = make_deployment(host).nodes[0]
        node.on_message(2, Propose(proposal_id=7, chunk_ids=(5,)))  # requested from 2
        node.on_message(3, Propose(proposal_id=8, chunk_ids=(5,)))  # remembered offer
        assert sent == [(2, Request(proposal_id=7, chunk_ids=(5,)))]
        assert node._awaited[5].proposer == 2
        del sent[:]
        if alternative_down:
            host.down.add(3)
        (close, args), = timers  # the request's serve timeout
        close(*args)
        if alternative_down:
            assert sent == []
            assert 5 not in node._awaited  # released for a later proposal
        else:
            assert sent == [(3, Request(proposal_id=8, chunk_ids=(5,)))]
            assert node._awaited[5].proposer == 3


class TestRequestAmplification:
    """A ``Request`` buys each chunk it names once, however often it
    names it — on every plane: the handler is the shared one."""

    def test_repeated_chunk_id_draws_one_serve(self):
        host = FakeHost()
        sent = []
        host.send_many = lambda src, dsts, message, kind: sent.extend(
            (dst, message) for dst in dsts
        ) or len(dsts)
        node = make_deployment(host).nodes[0]
        node.store.add(5, 1400, received_at=0.0)
        node._sent_proposals[7] = _SentProposal(partners={2}, chunk_ids={5}, at=0.0)
        node.on_message(2, Request(proposal_id=7, chunk_ids=(5,) * 200))
        assert sent == [(2, Serve(proposal_id=7, chunk_id=5, payload_size=1400, origin=0))]
        assert node.engine._pending_acks == {2: {5: 0.0}}


class TestVerdictRules:
    def test_quorum_claim_expels_on_the_host(self, deployment):
        deployment.on_expel_quorum(0, 3, "score")
        assert deployment.controller.is_expelled(3)
        assert deployment.host.expelled == [3]
        assert not deployment.membership.contains(3)

    def test_expelled_issuers_claim_is_void(self, deployment):
        deployment.controller.expel(0, "score")
        deployment.on_expel_quorum(0, 3, "score")
        assert 3 not in deployment.controller.records
        assert deployment.host.expelled == [0]

    def test_observation_mode_records_without_expelling(self):
        deployment = make_deployment(expulsion_enabled=False)
        deployment.on_expel_quorum(0, 3, "score")
        assert 3 in deployment.controller.records
        assert not deployment.controller.is_expelled(3)
        assert deployment.host.expelled == []
        assert deployment.membership.contains(3)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_one_expulsion_record_per_target(self, enabled):
        class Log:
            def __init__(self):
                self.records = []

            def append(self, kind, **data):
                self.records.append((kind, data))

        deployment = make_deployment(expulsion_enabled=enabled, audit_log=Log())
        deployment.on_expel_quorum(0, 3, "score")
        deployment.on_expel_quorum(1, 3, "score")  # a second manager's callback
        assert deployment.audit_log.records == [
            ("expulsion", {"target": 3, "reason": "score", "enforced": enabled})
        ]

    def test_blames_past_eta_write_the_votes_the_quorums_and_one_expulsion(self):
        """The manager-vote records of the tamper-evident log, end to end:
        every manager that sees the score below η logs its vote, every
        manager that counts a quorum logs it, the chain verifies, and
        the verdict is enforced once."""

        class Loopback(FakeHost):
            """A send *is* the destination's handler call."""

            def send_many(self, src, dsts, message, kind):
                for dst in dsts:
                    deployment.nodes[dst].on_message(src, message)
                return len(dsts)

        host = Loopback()
        log = AuditLog(key_seed="verdicts", clock=host.clock)
        deployment = make_deployment(host, expulsion_enabled=True, audit_log=log)
        target = 3
        managers = deployment.assignment.managers_of(target)
        quorum = 2  # ceil(expel_quorum 0.5 x 3 managers)
        for manager in managers:
            deployment.managers[manager].on_blame(target, 1e6)
        host.now = 0.5 * (deployment.lifting.min_periods_before_expel + 1)
        for manager in managers:
            deployment.nodes[manager]._run_manager_duties()

        kinds = [record.kind for record in log.records]
        votes = [r.data for r in log.records if r.kind == "expel_vote"]
        quorums = [r.data for r in log.records if r.kind == "expel_quorum"]
        # The first ``quorum`` managers vote; the last one already holds
        # a quorum of its peers' votes when its own sweep runs.
        assert [v["voter"] for v in votes] == list(managers[:quorum])
        assert all(v["target"] == target and v["score"] < deployment.lifting.eta for v in votes)
        assert sorted(q["manager"] for q in quorums) == sorted(managers)
        assert all(q["votes"] == sorted(managers[:quorum]) for q in quorums)
        assert kinds.count("expulsion") == 1
        assert kinds.index("expel_quorum") < kinds.index("expulsion")
        assert log.verify_all().ok
        assert host.expelled == [target] and deployment.controller.is_expelled(target)

    def test_connected_reporters_event_is_applied(self, deployment):
        deployment.on_membership_event(1, 4, STATUS_SUSPECT, 0)
        assert deployment.membership.status_of(4) == STATUS_SUSPECT
        assert deployment.churn_monitor.suspicions == 1

    @pytest.mark.parametrize("silence", ["expel", "crash"])
    def test_unreachable_reporters_event_is_dropped(self, deployment, silence):
        if silence == "expel":
            deployment.controller.expel(1, "score")
        else:
            assert deployment.crash(1)
        deployment.on_membership_event(1, 4, STATUS_SUSPECT, 0)
        assert deployment.membership.status_of(4) == STATUS_ALIVE
        assert deployment.churn_monitor.suspicions == 0


class TestSilentFailureLifecycle:
    def test_crash_disconnects_and_tells_nobody(self, deployment):
        assert deployment.crash(2)
        assert not deployment.host.is_connected(2)
        assert deployment.membership.contains(2)  # peers must detect it
        assert deployment.churn_monitor.crashes == 1

    def test_crash_of_unreachable_node_counts_nothing(self, deployment):
        deployment.crash(2)
        assert not deployment.crash(2)
        assert deployment.churn_monitor.crashes == 1

    def test_may_restart_refuses_an_expelled_node(self, deployment):
        deployment.crash(2)
        deployment.controller.expel(2, "score")
        assert not deployment.may_restart(2)
        assert deployment.churn_monitor.rejoins_refused == 1

    def test_live_fault_driver_logs_the_restart_it_refuses(self, deployment):
        # The live plane's scripted restart of a node the quorum expelled
        # while it was down: the host is never asked to rebind it.
        # (node 99 is not in the deployment: the driver skips it.)
        schedule = FaultSchedule.from_dicts([{"kind": "restart", "at": 1.0, "nodes": [99, 2]}])
        cluster = RuntimeCluster(RuntimeConfig(n=N, fault_schedule=schedule))
        cluster.deployment, cluster.nodes = deployment, deployment.nodes
        host, plane = deployment.host, FaultPlane(schedule)
        log = AuditLog(clock=host.clock)
        deployment.crash(2)
        plane.mark_crashed(2)
        deployment.controller.expel(2, "score")
        host.now = 1.5  # past the instant: the driver does not sleep
        asyncio.run(cluster._fault_driver(host, plane, log))
        assert [(r.kind, r.data) for r in log.records] == [
            ("fault", {"event": "restart_refused", "node": 2})
        ]
        assert deployment.churn_monitor.rejoins_refused == 1
        assert plane.counters()["crashed_now"] == 1 and 2 in host.down

    def test_may_restart_refuses_a_node_that_never_went_down(self, deployment):
        assert not deployment.may_restart(2)
        assert deployment.churn_monitor.rejoins_refused == 0
        deployment.crash(2)
        assert deployment.may_restart(2)

    def test_restarted_brings_up_a_fresh_incarnation(self, deployment):
        victim, peer = deployment.nodes[2], deployment.nodes[4]
        starts = []
        victim.start = lambda: starts.append(1)
        deployment.crash(2)
        deployment.membership.mark_dead(2)  # confirmed while down
        peer.engine.on_serve_sent(2, 55)  # the dead incarnation's debt
        peer.engine.on_serve_sent(3, 56)
        victim.engine.on_serve_sent(3, 57)
        victim._sent_proposals[9] = object()
        victim._fresh[7] = 3
        victim._awaited[9] = _Window(proposer=3, proposal_id=1, chunk_ids=(9,))
        victim._blame_outbox[4] = 2.0

        deployment.host.down.discard(2)  # the host's own step
        deployment.restarted(2)

        assert deployment.membership.contains(2)
        assert deployment.membership.incarnation_of(2) == 1
        assert peer.engine.pending_ack_count == 1  # only node 3's row left
        assert victim.engine.pending_ack_count == 0
        assert victim._sent_proposals == {}
        assert (victim._fresh, victim._awaited, victim._blame_outbox) == ({}, {}, {})
        assert starts == [1]
        assert deployment.churn_monitor.restarts == 1


class TestReadOuts:
    def test_churn_summary_is_empty_without_a_detector(self):
        assert make_deployment().churn_summary() == {}

    def test_churn_summary_keys(self, deployment):
        # The keys RuntimeReport.membership and the churn scenario expose.
        assert list(deployment.churn_summary()) == [
            "crashes",
            "restarts",
            "leaves",
            "rejoins",
            "rejoins_refused",
            "suspicions",
            "refutations",
            "confirmed_dead",
            "readmissions",
            "mean_detection_delay",
            "max_detection_delay",
            "mean_recovery_delay",
            "max_recovery_delay",
            "suspected_now",
            "quarantines_started",
            "quarantines_discarded",
            "quarantines_released",
            "records_in_quarantine",
            "quarantined_events_pending",
            "probes_sent",
            "indirect_probes",
            "local_suspicions",
            "local_refutations",
        ]

    def test_scores_and_detection_cover_every_node(self, deployment):
        assert sorted(deployment.scores()) == deployment.node_ids
        assert deployment.detection().false_positives == 0.0

    def test_invariant_monitor_reads_live_state(self, deployment):
        monitor = deployment.invariant_monitor()
        assert monitor.check() == []
        deployment.controller.expel(3, "score")  # an honest node, honest quorum
        assert [v.invariant for v in monitor.check()] == ["wrongful_expulsion"]
