#!/usr/bin/env python
"""Guard the simulation substrate's performance.

Re-times the substrate kernels (event engine, network send/deliver,
300- and 1000-node clusters, Table 5's six-cell experiment grid through
the parallel orchestration layer, and the peak-memory footprint of a
warm cluster300 sim-second) and compares them against the ``current``
baselines in ``benchmarks/BENCH_substrate.json``.  Exits non-zero if
any kernel regressed by more than ``TOLERANCE`` (30 %).

The baselines file is a serialised ``repro.scenarios.RunResult``
envelope (the baselines live in its ``metrics``); reading and writing
it exclusively through ``RunResult.load``/``dump`` keeps the benchmark
and experiment schemas from drifting apart.

On machines with >= 4 cores the ``jobs=4`` speedup of the six-cell
grid is additionally checked against the ``parallel`` section's
recorded target (>= 2.5x, the ISSUE 2 acceptance bar); on smaller
machines the speedup check is skipped (the serial-grid kernel still
guards the orchestration layer's overhead there).

Usage::

    PYTHONPATH=src python scripts/check_bench_regression.py           # check
    PYTHONPATH=src python scripts/check_bench_regression.py --update  # refresh baselines
    PYTHONPATH=src python scripts/check_bench_regression.py --skip-cluster

The kernels intentionally mirror ``benchmarks/bench_substrate_performance.py``
and ``benchmarks/bench_parallel_experiments.py`` but run without
pytest-benchmark so the check stays dependency-light and fast enough
for CI smoke runs.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import time

import numpy as np

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(_REPO_ROOT / "src") not in sys.path:  # runnable without PYTHONPATH=src
    sys.path.insert(0, str(_REPO_ROOT / "src"))

BENCH_FILE = _REPO_ROOT / "benchmarks" / "BENCH_substrate.json"
TOLERANCE = 0.30
#: the six-cell Table 5 grid of benchmarks/bench_parallel_experiments.py.
GRID_KWARGS = dict(
    n=50,
    duration=3.0,
    seed=31,
    rates_kbps=(674.0, 1082.0),
    p_dcc_values=(0.0, 0.5, 1.0),
)
SPEEDUP_JOBS = 4


def _as_mutable(value):
    """Deep-copy the canonical (tuple-based) metrics into plain dicts/lists."""
    if isinstance(value, dict):
        return {key: _as_mutable(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return [_as_mutable(item) for item in value]
    return value


def best_of(fn, reps):
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_engine() -> float:
    """Events/second through the engine hot path (schedule + args)."""
    from repro.sim.engine import Simulator

    def run_10k():
        sim = Simulator()
        state = [0]

        def tick(state):
            state[0] += 1
            if state[0] < 10_000:
                sim.schedule(sim.now + 0.001, tick, state)

        sim.schedule(0.001, tick, state)
        sim.run()

    return 10_000 / best_of(run_10k, reps=9)


def bench_send_deliver() -> float:
    """Messages/second through the full network send + deliver path."""
    from repro.sim.engine import Simulator
    from repro.sim.latency import UniformLatency
    from repro.sim.loss import BernoulliLoss
    from repro.sim.network import Network
    from repro.wire import Propose

    class Sink:
        def __init__(self, node_id):
            self.node_id = node_id

        def on_message(self, src, message):
            pass

    def run_10k():
        sim = Simulator()
        net = Network(
            sim,
            latency=UniformLatency(np.random.default_rng(3), 0.01, 0.08),
            loss=BernoulliLoss(np.random.default_rng(4), 0.04),
        )
        net.register(Sink(0))
        net.register(Sink(1))
        msg = Propose(proposal_id=1, chunk_ids=(1, 2, 3))
        for _ in range(10_000):
            net.send(0, 1, msg)
        sim.run()

    return 10_000 / best_of(run_10k, reps=7)


def _bench_cluster(n: int, warmup: float, reps: int) -> float:
    """Seconds of wall clock per simulated second, warm ``n``-node run."""
    from repro.experiments.scaling import scaling_config
    from repro.experiments.cluster import SimCluster

    cluster = SimCluster(scaling_config(n, seed=1))
    cluster.run(until=warmup)

    best = float("inf")
    until = warmup
    for _ in range(reps):
        until += 1.0
        start = time.perf_counter()
        cluster.run(until=until)
        best = min(best, time.perf_counter() - start)
    return best


def bench_cluster300() -> float:
    """The n=300 (PlanetLab scale) cluster kernel."""
    return _bench_cluster(300, warmup=3.0, reps=3)


def bench_cluster300_peak_mem() -> float:
    """Peak tracemalloc MiB allocated over one warm cluster300 sim-second.

    Guards the memory side of the delivery plane: the calendar-queue
    timeline (or any future scheduler change) must not trade unbounded
    buffering for speed.  tracemalloc counts only allocations made
    while tracing, i.e. the marginal footprint of a steady-state
    simulated second (in-flight messages, timeline buckets, protocol
    state growth) — wall-clock under tracing is irrelevant, so this
    kernel is far less machine-sensitive than the timing ones.
    """
    import tracemalloc

    from repro.experiments.scaling import scaling_config
    from repro.experiments.cluster import SimCluster

    cluster = SimCluster(scaling_config(300, seed=1))
    cluster.run(until=3.0)
    tracemalloc.start()
    try:
        cluster.run(until=4.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


def bench_cluster1000() -> float:
    """The n=1000 (large-n target) cluster kernel."""
    return _bench_cluster(1000, warmup=2.0, reps=2)


def bench_cluster1000_peak_mem() -> float:
    """Peak tracemalloc MiB allocated over one warm cluster1000 sim-second.

    The large-n counterpart of ``bench_cluster300_peak_mem``.  Together
    they are the only CI gate that measures allocation: per-node state
    that never forgets (a map keyed per witness per confirm round was
    40 % of this number until PR 18) shows up here first.  Like the
    300-node version it measures allocations, not time, so it is
    enforced even on noisy CI runners (``--skip-cluster`` does not skip
    it).
    """
    import tracemalloc

    from repro.experiments.scaling import scaling_config
    from repro.experiments.cluster import SimCluster

    cluster = SimCluster(scaling_config(1000, seed=1))
    cluster.run(until=2.0)
    tracemalloc.start()
    try:
        cluster.run(until=3.0)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (1024 * 1024)


_SERIAL_GRID_S: list = []  # memo so the speedup check reuses the kernel's run


def bench_table5_grid_serial() -> float:
    """Wall-clock seconds for the six-cell grid through the job runner
    (``jobs=1``) — guards the orchestration layer's serial overhead."""
    from repro import run_scenario

    measured = best_of(lambda: run_scenario("table5", jobs=1, **GRID_KWARGS), reps=2)
    _SERIAL_GRID_S.append(measured)
    return measured


def bench_table5_grid_speedup() -> float:
    """``jobs=4`` speedup over ``jobs=1`` on the six-cell grid."""
    from repro import run_scenario

    serial = _SERIAL_GRID_S[-1] if _SERIAL_GRID_S else bench_table5_grid_serial()
    parallel = best_of(lambda: run_scenario("table5", jobs=SPEEDUP_JOBS, **GRID_KWARGS), reps=2)
    return serial / parallel


# metric key -> (runner, higher_is_better)
KERNELS = {
    "engine_events_per_s": (bench_engine, True),
    "send_deliver_msgs_per_s": (bench_send_deliver, True),
    "cluster300_s_per_sim_second": (bench_cluster300, False),
    "cluster300_peak_mem_mib": (bench_cluster300_peak_mem, False),
    "cluster1000_s_per_sim_second": (bench_cluster1000, False),
    "cluster1000_peak_mem_mib": (bench_cluster1000_peak_mem, False),
    "table5_6cell_grid_serial_s": (bench_table5_grid_serial, False),
}

#: kernels skipped by --skip-cluster (the slow deployment-scale timing
#: ones; the peak-memory kernels stay — they do not depend on machine
#: speed, so they are enforced even on noisy CI runners).
CLUSTER_KERNELS = ("cluster300_s_per_sim_second", "cluster1000_s_per_sim_second")

UNITS = {
    "engine_events_per_s": "ops/s",
    "send_deliver_msgs_per_s": "ops/s",
    "cluster300_s_per_sim_second": "s/sim-s",
    "cluster300_peak_mem_mib": "MiB",
    "cluster1000_s_per_sim_second": "s/sim-s",
    "cluster1000_peak_mem_mib": "MiB",
    "table5_6cell_grid_serial_s": "s",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="write measured numbers as the new 'current' baselines")
    parser.add_argument("--skip-cluster", action="store_true", help="skip the (slower) 300- and 1000-node cluster kernels")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=TOLERANCE,
        help="allowed fractional regression before failing (default %(default)s; "
        "CI uses a looser value because shared runners vary across machine "
        "generations more than an idle dev box does)",
    )
    args = parser.parse_args(argv)
    tolerance = args.tolerance

    from repro.scenarios import RunResult

    envelope = RunResult.load(BENCH_FILE)
    data = {key: _as_mutable(value) for key, value in envelope.metrics.items()}
    current = data["current"]
    failures = []

    for key, (runner, higher_is_better) in KERNELS.items():
        if args.skip_cluster and key in CLUSTER_KERNELS:
            continue
        measured = runner()
        baseline = current.get(key)
        unit = UNITS.get(key, "ops/s" if higher_is_better else "s")
        baseline_text = "none" if baseline is None else f"{baseline:,.1f}"
        print(f"{key}: measured {measured:,.1f} {unit} (baseline {baseline_text})")
        if args.update:
            current[key] = round(measured, 4) if not higher_is_better else int(measured)
            continue
        if baseline is None:
            continue
        if higher_is_better:
            regressed = measured < baseline * (1.0 - tolerance)
        else:
            regressed = measured > baseline * (1.0 + tolerance)
        if regressed:
            failures.append(f"{key}: {measured:,.1f} vs baseline {baseline:,.1f} (>{tolerance:.0%} regression)")

    # Parallel scaling: only meaningful (and only enforced) with the
    # worker count's worth of physical cores available.
    parallel = data.get("parallel", {})
    target = parallel.get("table5_speedup_4jobs_target")
    cores = os.cpu_count() or 1
    if target is not None and not args.update:
        if cores >= SPEEDUP_JOBS:
            speedup = bench_table5_grid_speedup()
            print(
                f"table5_speedup_{SPEEDUP_JOBS}jobs: measured {speedup:.2f}x "
                f"(target {target:.2f}x)"
            )
            if speedup < target * (1.0 - tolerance):
                failures.append(
                    f"table5_speedup_{SPEEDUP_JOBS}jobs: {speedup:.2f}x vs "
                    f"target {target:.2f}x (>{tolerance:.0%} short)"
                )
        else:
            print(
                f"table5_speedup_{SPEEDUP_JOBS}jobs: skipped "
                f"({cores} cores < {SPEEDUP_JOBS})"
            )

    if args.update:
        envelope.with_metrics(data).dump(BENCH_FILE)
        print(f"updated {BENCH_FILE}")
        return 0
    if failures:
        print("\nPERFORMANCE REGRESSION:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("\nsubstrate performance within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
