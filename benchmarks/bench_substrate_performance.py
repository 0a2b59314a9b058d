"""Substrate micro-benchmarks: engine throughput and sampler costs.

Not a paper artefact — these guard the simulator's performance so the
deployment-scale experiments stay tractable (a regression here silently
turns the Figure 14 run from minutes into hours).

Before/after baselines for the fast-kernel rewrite live in
``benchmarks/BENCH_substrate.json``; ``scripts/check_bench_regression.py``
re-times the three kernels below and fails on a >30 % regression
against the recorded ``current`` numbers.  See ``docs/PERFORMANCE.md``
for the kernel design and how to refresh the baselines.
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import record_report
from repro.mc.blame_model import BlameModel
from repro.membership.full import FullMembership
from repro.sim.engine import Simulator
from repro.util.rng import make_generator


def test_event_engine_throughput(benchmark):
    """10k self-rescheduling events through the engine's hot path.

    Uses :meth:`Simulator.schedule` (callback + args inline) — the
    absolute-time heap path period ticks take.
    """

    def run_10k_events():
        sim = Simulator()
        state = [0]

        def tick(state):
            state[0] += 1
            if state[0] < 10_000:
                sim.schedule(sim.now + 0.001, tick, state)

        sim.schedule(0.001, tick, state)
        sim.run()
        return state[0]

    result = benchmark(run_10k_events)
    assert result == 10_000


def test_event_engine_timer_throughput(benchmark):
    """The relative-delay ``call_later`` path (no calendar attached here,
    so the calls ride the heap)."""

    def run_10k_events():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.call_later(0.001, tick)

        sim.call_later(0.001, tick)
        sim.run()
        return count

    result = benchmark(run_10k_events)
    assert result == 10_000


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.count = 0

    def on_message(self, src, message):
        self.count += 1


def test_send_deliver_throughput(benchmark):
    """10k UDP sends through the full network path: wire sizing, upload
    link, trace accounting, loss + latency sampling, delivery event."""
    from repro.sim.latency import UniformLatency
    from repro.sim.loss import BernoulliLoss
    from repro.sim.network import Network
    from repro.wire import Propose

    def run_10k_sends():
        sim = Simulator()
        net = Network(
            sim,
            latency=UniformLatency(np.random.default_rng(3), 0.01, 0.08),
            loss=BernoulliLoss(np.random.default_rng(4), 0.04),
        )
        a, b = _Sink(0), _Sink(1)
        net.register(a)
        net.register(b)
        msg = Propose(proposal_id=1, chunk_ids=(1, 2, 3))
        for _ in range(10_000):
            net.send(0, 1, msg)
        sim.run()
        return b.count

    delivered = benchmark(run_10k_sends)
    assert delivered > 9_000  # ~4 % loss


def test_membership_sampling_throughput(benchmark):
    membership = FullMembership(make_generator(1, "bench"), range(10_000))

    def sample_batch():
        for node in range(0, 1000):
            membership.sample(node, 12)

    benchmark(sample_batch)


def test_blame_sampler_throughput(benchmark):
    model = BlameModel(fanout=12, request_size=4, p_reception=0.93)
    rng = make_generator(2, "bench")
    benchmark(lambda: model.sample_period_blames(rng, 100_000))


def _cluster_simulated_second(benchmark, n, warmup, rounds):
    from repro.experiments.cluster import SimCluster
    from repro.experiments.scaling import scaling_config

    cluster = SimCluster(scaling_config(n, seed=1))
    cluster.run(until=warmup)

    state = {"until": warmup}

    def one_second():
        state["until"] += 1.0
        cluster.run(until=state["until"])

    benchmark.pedantic(one_second, rounds=rounds, iterations=1)
    record_report(
        "substrate_performance",
        f"events processed in warm n={n} deployment: {cluster.sim.events_processed}",
    )


def test_cluster_simulated_second(benchmark):
    """Wall-clock cost of one simulated second of a 300-node deployment
    (the Figure 14 PlanetLab scale)."""
    _cluster_simulated_second(benchmark, n=300, warmup=3.0, rounds=5)


def test_cluster1000_simulated_second(benchmark):
    """Same kernel at the large-n target size (n=1000)."""
    _cluster_simulated_second(benchmark, n=1000, warmup=2.0, rounds=2)


@pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH_FULL"),
    reason="n=2000 cluster bench is opt-in (REPRO_BENCH_FULL=1)",
)
def test_cluster2000_simulated_second(benchmark):
    """Opt-in n=2000 point of the scaling curve (slow)."""
    _cluster_simulated_second(benchmark, n=2000, warmup=2.0, rounds=2)
