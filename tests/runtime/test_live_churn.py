"""Live-plane churn: the SWIM detector on a real asyncio deployment.

One loopback cluster (n=10) runs the same scripted crash/restart churn
the sim acceptance test uses — two honest victims down for 1 s, inside
the 2 s live suspicion window (8 periods × 0.25 s) — and the report must
show the detector working end to end: suspicions raised, refutations
observed, zero wrongful expulsions, and the membership transitions
chained into the tamper-evident audit log.
"""

import asyncio

import pytest

from repro.core.auditlog import AuditLog
from repro.membership.failure_detector import FailureDetectorParams
from repro.deployment import loopback_config
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.faults import FaultEvent, FaultSchedule

DURATION = 4.0
KEY_SEED = "live-churn-test"


@pytest.fixture(scope="module")
def churn_run(tmp_path_factory):
    """One live churn deployment shared by every assertion below."""
    log_path = tmp_path_factory.mktemp("live-churn") / "audit.jsonl"
    config = RuntimeConfig(
        loopback_config(
            10, seed=11, expulsion_enabled=True, failure_detector=FailureDetectorParams()
        ),
        duration=DURATION,
        fault_schedule=FaultSchedule.churn([1, 2], DURATION, downtime=1.0),
        audit_log_path=str(log_path),
        audit_key_seed=KEY_SEED,
    )

    cluster = RuntimeCluster(config)

    async def run():
        # The wait_for is the no-hang assertion: a stuck event loop
        # fails here instead of stalling the suite.
        return await asyncio.wait_for(cluster.run(), timeout=10 * DURATION)

    return cluster, asyncio.run(run()), log_path


class TestLiveChurn:
    def test_run_completes_with_throughput(self, churn_run):
        _cluster, report, _path = churn_run
        assert report.chunks_emitted > 0
        assert report.delivery_ratio > 0.3

    def test_membership_stats_populated(self, churn_run):
        cluster, _report, _path = churn_run
        stats = cluster.deployment.churn_summary()
        assert stats["crashes"] == 2
        assert stats["restarts"] == 2
        assert stats["probes_sent"] > 0

    def test_crashes_were_suspected_not_expelled(self, churn_run):
        cluster, _report, _path = churn_run
        stats = cluster.deployment.churn_summary()
        expelled, wrongful = cluster.deployment.expulsions()
        # Loose bounds — real timers jitter — but the detector must have
        # noticed the outages and the restarts must have refuted them.
        assert stats["suspicions"] >= 1
        assert stats["refutations"] >= 1
        assert wrongful == []
        assert expelled == []  # honest-only population

    def test_cluster_converged_after_restarts(self, churn_run):
        cluster, _report, _path = churn_run
        stats = cluster.deployment.churn_summary()
        assert stats["suspected_now"] == 0
        assert stats["records_in_quarantine"] == 0

    def test_membership_transitions_in_audit_chain(self, churn_run):
        _cluster, report, path = churn_run
        assert report.audit_ok is True
        loaded = AuditLog.load(str(path), key_seed=KEY_SEED)
        assert loaded.verify_all().ok
        transitions = [
            r.data["transition"]
            for r in loaded.records
            if r.kind == "membership"
        ]
        assert "suspect" in transitions
        assert "refute" in transitions


class TestScriptedRestartWithoutCrash:
    """A ``restart`` of a node that never went down must be a no-op.

    Rebinding the live node's sockets and calling ``start()`` again arms
    a second period timer whose handle overwrites the first, so the node
    gossips at twice the rate and ``stop()`` can never cancel it.  The
    simulated plane pins the same rule in
    ``tests/experiments/test_churn.py::test_restart_of_never_crashed_node_is_noop``.
    """

    def test_node_is_not_started_twice(self):
        config = RuntimeConfig(
            loopback_config(8, seed=3, failure_detector=FailureDetectorParams()),
            duration=3.0,
            fault_schedule=FaultSchedule(
                events=(FaultEvent(kind="restart", at=0.5, nodes=(1,)),)
            ),
        )
        cluster = RuntimeCluster(config)
        report = asyncio.run(asyncio.wait_for(cluster.run(), timeout=30.0))
        periods = {nid: node.period for nid, node in cluster.nodes.items()}
        peers = [count for nid, count in periods.items() if nid != 1]
        assert min(peers) - 1 <= periods[1] <= max(peers) + 1
        stats = cluster.deployment.churn_summary()
        assert stats["restarts"] == 0
        assert stats["crashes"] == 0
        assert report.faults["crashed_now"] == 0
