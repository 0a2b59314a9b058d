"""The invariant monitor: clean runs stay clean, breaches get flagged once.

The monitor's whole value is asymmetry: a healthy deployment produces
zero violations sweep after sweep, while a single synthetic breach —
a mutated blame total, a resurrected expellee, a leaked quarantine
buffer — is reported exactly once with a nameable invariant.  Fake
managers keep the breach surgical; one real ``SimCluster`` backs the
clean-run claim.
"""

from dataclasses import replace

import pytest

from repro import adversary
from repro.config import FreeriderDegree, planetlab_params
from repro.core.invariants import InvariantMonitor
from repro.experiments.cluster import ClusterConfig, SimCluster


class FakeRecord:
    def __init__(self, blame_events=0, blame_total=0.0, suspected=False,
                 quarantined_events=0):
        self.blame_events = blame_events
        self.blame_total = blame_total
        self.suspected = suspected
        self.quarantined_events = quarantined_events


class FakeManager:
    def __init__(self, records=None):
        self.records = records or {}
        self.quarantines_started = 0
        self.quarantines_discarded = 0
        self.quarantines_released = 0

    def suspected_records(self):
        return sum(1 for r in self.records.values() if r.suspected)


class FakeVerdict:
    def __init__(self, ok):
        self.ok = ok

    def __repr__(self):
        return f"FakeVerdict(ok={self.ok})"


class FakeAuditLog:
    def __init__(self, ok=True):
        self.ok = ok

    def verify_all(self):
        return FakeVerdict(self.ok)


def make_monitor(*, managers=None, honest=(1, 2, 3), adversaries=(9,),
                 expelled=None, audit_logs=()):
    expelled = expelled if expelled is not None else set()
    return InvariantMonitor(
        managers=managers or {},
        honest_ids=honest,
        adversary_ids=adversaries,
        is_expelled=expelled.__contains__,
        node_ids=tuple(honest) + tuple(adversaries),
        audit_logs=audit_logs,
        clock=lambda: 42.0,
    ), expelled


class TestCleanSweeps:
    def test_empty_deployment_is_clean(self):
        monitor, _ = make_monitor()
        assert monitor.check() == []
        assert monitor.summary() == {"checks": 1, "violations": 0, "by_invariant": {}}

    def test_clean_cluster_run_has_zero_violations(self):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=16, chunk_size=1400)
        cluster = SimCluster(ClusterConfig(
            gossip=gossip, lifting=lifting, seed=5, loss_rate=0.04,
            freerider_fraction=0.125,
            adversary=adversary.spec("freerider", degree=(0.5,) * 3),
            expulsion_enabled=True,
        ))
        monitor = cluster.attach_invariants()
        cluster.run(until=8.0)
        monitor.check()
        summary = monitor.summary()
        assert summary["checks"] >= 3
        assert summary["violations"] == 0

    def test_adversary_expulsion_is_not_wrongful(self):
        monitor, expelled = make_monitor()
        expelled.add(9)  # the adversary goes: by design, not a breach
        assert monitor.check() == []


class TestSyntheticBreaches:
    def test_honest_expulsion_under_honest_quorum_is_wrongful(self):
        monitor, expelled = make_monitor()
        expelled.add(2)
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["wrongful_expulsion"]
        assert "2" in fresh[0].detail
        assert fresh[0].at == 42.0

    def test_resurrected_expellee_breaks_permanence(self):
        monitor, expelled = make_monitor()
        expelled.add(9)
        assert monitor.check() == []
        expelled.discard(9)  # the dead walk
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["expulsion_permanence"]

    def test_blame_total_moving_without_event_breaks_monotonicity(self):
        record = FakeRecord(blame_events=3, blame_total=5.0)
        monitor, _ = make_monitor(managers={1: FakeManager({7: record})})
        assert monitor.check() == []
        record.blame_total = 6.5  # silent mutation, no event
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["score_monotonicity"]

    def test_decreasing_blame_events_breaks_monotonicity(self):
        record = FakeRecord(blame_events=3, blame_total=5.0)
        monitor, _ = make_monitor(managers={1: FakeManager({7: record})})
        assert monitor.check() == []
        record.blame_events = 2
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["score_monotonicity"]

    def test_blame_with_event_is_fine(self):
        record = FakeRecord(blame_events=3, blame_total=5.0)
        monitor, _ = make_monitor(managers={1: FakeManager({7: record})})
        assert monitor.check() == []
        record.blame_events = 4
        record.blame_total = 6.5
        assert monitor.check() == []

    def test_leaked_quarantine_buffer_breaks_conservation(self):
        record = FakeRecord(suspected=False, quarantined_events=2)
        monitor, _ = make_monitor(managers={1: FakeManager({7: record})})
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["quarantine_conservation"]

    def test_quarantine_counter_imbalance_breaks_conservation(self):
        manager = FakeManager({7: FakeRecord()})
        manager.quarantines_started = 2
        manager.quarantines_released = 1  # one quarantine unaccounted for
        monitor, _ = make_monitor(managers={1: manager})
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["quarantine_conservation"]

    def test_broken_audit_chain_is_flagged(self):
        monitor, _ = make_monitor(audit_logs=(FakeAuditLog(ok=False),))
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["audit_chain"]

    def test_healthy_audit_chain_is_not(self):
        monitor, _ = make_monitor(audit_logs=(FakeAuditLog(ok=True),))
        assert monitor.check() == []


class TestReporting:
    def test_each_breach_reported_once_across_sweeps(self):
        monitor, expelled = make_monitor()
        expelled.add(2)
        assert len(monitor.check()) == 1
        for _ in range(5):
            assert monitor.check() == []  # still broken, already reported
        assert monitor.summary()["violations"] == 1
        assert monitor.summary()["by_invariant"] == {"wrongful_expulsion": 1}

    def test_summary_tallies_by_invariant(self):
        record = FakeRecord(suspected=False, quarantined_events=1)
        monitor, expelled = make_monitor(
            managers={1: FakeManager({7: record})},
            audit_logs=(FakeAuditLog(ok=False),),
        )
        expelled.add(2)
        monitor.check()
        summary = monitor.summary()
        assert summary["violations"] == 3
        assert set(summary["by_invariant"]) == {
            "wrongful_expulsion", "quarantine_conservation", "audit_chain"
        }


class TestQuorumAwareness:
    def test_adversary_held_quorum_excuses_the_expulsion(self):
        # When the target's managers are majority-adversarial, an honest
        # expulsion is the *adversary's* doing, not a protocol breach.
        class Assignment:
            def managers_of(self, target):
                return (9, 8, 1)  # 2/3 adversarial >= quorum 0.5

        monitor = InvariantMonitor(
            managers={},
            honest_ids=(1, 2),
            adversary_ids=(8, 9),
            is_expelled={2}.__contains__,
            node_ids=(1, 2, 8, 9),
            assignment=Assignment(),
            expel_quorum=0.5,
        )
        assert monitor.check() == []

    def test_honest_quorum_makes_it_wrongful(self):
        class Assignment:
            def managers_of(self, target):
                return (9, 1, 2)  # 1/3 adversarial < quorum

        monitor = InvariantMonitor(
            managers={},
            honest_ids=(1, 2, 3),
            adversary_ids=(9,),
            is_expelled={3}.__contains__,
            node_ids=(1, 2, 3, 9),
            assignment=Assignment(),
            expel_quorum=0.5,
        )
        fresh = monitor.check()
        assert [v.invariant for v in fresh] == ["wrongful_expulsion"]


class TestClusterWiring:
    def test_monitor_for_cluster_reads_live_state(self):
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=12, chunk_size=1400)
        cluster = SimCluster(ClusterConfig(
            gossip=gossip, lifting=lifting, seed=2, loss_rate=0.02,
            expulsion_enabled=True,
        ))
        monitor = cluster.deployment.invariant_monitor()
        assert set(monitor.managers) <= set(cluster.node_ids)
        assert monitor.honest_ids == cluster.honest_ids
        assert monitor.expel_quorum == cluster.config.lifting.expel_quorum
        assert monitor.clock() == cluster.sim.now
