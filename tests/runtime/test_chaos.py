"""End-to-end chaos run: scripted faults against the live plane.

One real deployment (n=12 on loopback) is driven through the acceptance
fault script — a 30% targeted drop window, one partition, two node
crashes with restarts — and every robustness claim is checked on the
resulting report: the run completes, the circuit breaker opens and
recovers, ingress stays bounded, and the audit chain verifies (and
survives a flipped byte via rollback).
"""

import asyncio
import json

import pytest

from repro.core.auditlog import AuditLog
from repro.deployment import loopback_config
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.scenarios.builtin import default_fault_schedule

DURATION = 4.0
KEY_SEED = "chaos-test"


@pytest.fixture(scope="module")
def chaos_run(tmp_path_factory):
    """One chaos deployment shared by every assertion below."""
    log_path = tmp_path_factory.mktemp("chaos") / "audit.jsonl"
    config = RuntimeConfig(
        loopback_config(
            12, seed=7, freerider_fraction=0.2, p_audit=0.1, expulsion_enabled=True
        ),
        duration=DURATION,
        fault_schedule=default_fault_schedule(12, DURATION),
        audit_log_path=str(log_path),
        audit_key_seed=KEY_SEED,
    )

    async def run():
        # The wait_for is the no-hang assertion: a stuck event loop
        # fails here instead of stalling the suite.
        return await asyncio.wait_for(
            RuntimeCluster(config).run(), timeout=10 * DURATION
        )

    return asyncio.run(run()), log_path


class TestChaosRun:
    def test_degrades_gracefully(self, chaos_run):
        report, _path = chaos_run
        assert report.chunks_emitted > 0
        # Crashes, a partition and a 30% drop window cost throughput but
        # must not collapse the stream.
        assert report.delivery_ratio > 0.3

    def test_faults_were_injected(self, chaos_run):
        report, _path = chaos_run
        assert report.faults["targeted_drops"] > 0
        assert report.faults["partition_drops"] > 0
        assert report.faults["crashed_now"] == 0  # both crashes restarted

    def test_breaker_opened_and_recovered(self, chaos_run):
        report, _path = chaos_run
        breaker = report.resilience["breaker"]
        assert breaker["opens"] >= 1
        assert breaker["half_open_probes"] >= 1
        assert breaker["closes"] >= 1

    def test_ingress_stayed_bounded(self, chaos_run):
        report, _path = chaos_run
        ingress = report.resilience["ingress"]
        assert 1 <= ingress["high_water"] <= ingress["capacity"]
        assert ingress["depth"] == 0  # drained by teardown

    def test_send_refusals_are_counted(self, chaos_run):
        report, _path = chaos_run
        # Crashed sources and open breakers refuse sends; the counter is
        # the graceful-degradation evidence (no exceptions, no hangs).
        assert report.sends_refused > 0

    def test_audit_chain_verifies(self, chaos_run):
        report, path = chaos_run
        assert report.audit_ok is True
        assert report.audit_records >= 4  # run_start, 2 crashes/restarts, snapshot
        loaded = AuditLog.load(str(path), key_seed=KEY_SEED)
        assert loaded.verify_all().ok
        kinds = [r.kind for r in loaded.records]
        assert kinds[0] == "run_start"
        assert kinds.count("fault") == 4  # two crashes + two restarts
        assert kinds[-1] == "snapshot"

    def test_flipped_byte_is_detected_and_recovered(self, chaos_run):
        _report, path = chaos_run
        tampered = path.with_name("tampered.jsonl")
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["ts"] = record["ts"] + 1.0  # the flipped byte
        lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        tampered.write_text("\n".join(lines) + "\n")

        loaded = AuditLog.load(str(tampered), key_seed=KEY_SEED)
        report = loaded.verify_all()
        assert not report.ok
        assert report.first_bad_seq == 2

        rollback = loaded.rollback()
        assert rollback.recovered
        loaded.close()
        assert AuditLog.load(str(tampered), key_seed=KEY_SEED).verify_all().ok
