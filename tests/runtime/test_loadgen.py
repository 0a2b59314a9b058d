"""Live load-generator smoke: a real cluster, a real stepped-rate sweep.

This is the end-to-end pin for the observability chain: driver sends
schedule-stamped frames over UDP → transport ingress hooks fire →
probe decomposes stages → cluster report carries the loadgen payload
with knee, percentiles and drop evidence.  Rates are kept far below
any plausible knee so the assertions are about plumbing, not machine
speed.
"""

import asyncio
import json
import math

from repro.loadgen import LoadGenerator, LoadProfile
from repro.loadgen.driver import BURST_CAP, CHUNK_OFFSET, LOADGEN_REPORT_SCHEMA, WORKING_SET
from repro.deployment import loopback_config
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig


def run_cluster(profile, n=6, seed=1):
    span = profile.steps * profile.step_duration + profile.settle
    config = RuntimeConfig(
        loopback_config(n, loss_rate=0.0, seed=seed),
        duration=span + 0.5,
        load_profile=profile,
        load_target=0,
    )
    cluster = RuntimeCluster(config)
    return cluster, asyncio.run(cluster.run())


class TestLiveLoadgen:
    def test_sweep_report_end_to_end(self):
        profile = LoadProfile(
            start_rate=200.0, step_rate=200.0, steps=2,
            step_duration=0.5, settle=0.2, seed=0,
        )
        cluster, report = run_cluster(profile)
        load = report.load
        assert load["schema"] == LOADGEN_REPORT_SCHEMA

        # Every scheduled frame was offered; at these gentle rates the
        # overwhelming majority must complete the full pipeline.
        overall = load["overall"]
        assert overall["offered"] == 100 + 200
        assert overall["done"] >= 0.9 * overall["offered"]
        assert overall["refused"] == 0

        # All four stages carry real samples with sane magnitudes.
        for stage in ("ingress", "queue", "dispatch", "sojourn"):
            p50 = overall["stages"][stage]["p50"]
            assert not math.isnan(p50)
            assert 0.0 <= p50 < 1.0
            assert not math.isnan(overall["stages"][stage]["p99"])
        # Stage decomposition orders: sojourn dominates each component.
        assert overall["stages"]["sojourn"]["p99"] >= overall["stages"]["queue"]["p50"]

        # Per-phase accounting lines up with the schedule.
        phases = load["phases"]
        assert [p["offered"] for p in phases] == [100, 200]
        assert [p["offered_rate"] for p in phases] == [200.0, 400.0]

        # Unsaturated sweep: goodput tracks offered, no knee claimed.
        knee = load["knee"]
        assert len(knee["offered"]) == len(knee["goodput"]) == len(knee["ratios"])
        assert knee["saturated"] is False
        assert knee["knee_rate"] is None
        assert all(r > 0.9 for r in knee["ratios"])

        # Drop evidence rides along from the resilience snapshot.
        assert load["ingress_high_water"] >= 1
        assert load["ingress_dropped"] == 0
        assert load["resilience"]["schema"] == "repro.resilience_snapshot/2"

        # Zero invariant violations while under load.
        assert cluster.invariants.summary()["violations"] == 0

        # The whole payload is JSON-safe (no numpy scalars, no sets).
        json.dumps(load)

    def test_loadgen_does_not_perturb_the_stream(self):
        # The measured frames must be invisible to the protocol metrics:
        # delivery ratio of the real stream stays intact under load.
        profile = LoadProfile(
            start_rate=300.0, step_rate=0.0, steps=1,
            step_duration=1.0, settle=0.2,
        )
        cluster, report = run_cluster(profile, n=8, seed=2)
        assert report.chunks_emitted > 0
        assert report.delivery_ratio > 0.85
        assert len(cluster.deployment.scores()) == 8

    def test_no_profile_no_load_report(self):
        config = RuntimeConfig(loopback_config(6, loss_rate=0.0, seed=3), duration=1.0)
        report = asyncio.run(RuntimeCluster(config).run())
        assert report.load == {}


class StalledHost:
    """A transport whose clock reads 0 once, then ten seconds later: the
    host stalled right after the generator took its epoch, so the whole
    schedule is overdue at the first wake-up."""

    probe = None

    def __init__(self):
        self.reads = 0
        self.sent = []

    def clock(self):
        self.reads += 1
        return 0.0 if self.reads == 1 else 10.0

    def send(self, src, dst, message, reliable):
        self.sent.append(message)
        return True


class TestCatchUp:
    def test_a_backlog_goes_out_in_capped_bursts_with_the_loop_in_between(self):
        profile = LoadProfile(start_rate=1000.0, steps=1, step_duration=1.0, settle=0.0)
        host = StalledHost()
        seen = []

        async def scenario():
            async def other_work():
                while True:
                    seen.append(len(host.sent))
                    await asyncio.sleep(0)

            bystander = asyncio.ensure_future(other_work())
            await LoadGenerator(host, profile, target=0).run()
            bystander.cancel()

        asyncio.run(scenario())
        assert len(host.sent) == 1000  # late, never thinned
        # The loop ran between bursts of BURST_CAP frames, not after all of them.
        assert {BURST_CAP, 2 * BURST_CAP, 3 * BURST_CAP} <= set(seen)
        # A bounded working set in the generator's own id space, 1-byte payloads.
        assert {m.chunk_id for m in host.sent} == set(
            range(CHUNK_OFFSET, CHUNK_OFFSET + WORKING_SET)
        )
        assert {m.payload_size for m in host.sent} == {1}
