"""Large-n scalability sweep: wall-clock cost per simulated second vs n.

Not a paper artefact — LiFTinG was validated on ~300 PlanetLab nodes,
and the ROADMAP's north star needs single deployments far beyond that.
This experiment measures how expensive one simulated second of a
PlanetLab-style deployment is as the system size grows, producing the
scaling curve recorded in ``benchmarks/BENCH_substrate.json`` (see
``benchmarks/bench_scaling_curve.py`` and the "Scaling with n" section
of ``docs/PERFORMANCE.md``).

Timing runs *inside* the worker around a warmed-up cluster, so a
multi-process sweep (``jobs > 1``) still times each deployment
correctly — but concurrent workers contend for cores, so curves meant
as performance baselines should be recorded with ``jobs=1``; ``jobs``
exists for functional smoke sweeps (CI) where wall accuracy is
secondary.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Tuple

from repro.config import planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.runtime.parallel import Task
from repro.scenarios import Param, RunResult, scenario


@dataclass(frozen=True)
class ScalingPoint:
    """Measured cost of one deployment size."""

    n: int
    wall_seconds: float
    sim_seconds: float
    #: engine events fired during the timed window.
    events: int
    #: tracemalloc peak over construction + warm-up (MiB).  Dominated by
    #: the standing per-node state (history rings, chunk store, open
    #: windows); 0.0 when the worker could not trace (nested tracing).
    peak_mem_mib: float = 0.0

    @property
    def s_per_sim_second(self) -> float:
        """Wall-clock seconds spent per simulated second."""
        return self.wall_seconds / self.sim_seconds

    @property
    def events_per_wall_second(self) -> float:
        """Engine throughput during the timed window."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.events / self.wall_seconds

    @property
    def peak_mem_kib_per_node(self) -> float:
        """Peak traced memory per deployment node (KiB) — the curve that
        must bend *down* as n grows: per-node state is bounded, and the
        fixed overheads amortise."""
        if self.n <= 0:
            return 0.0
        return self.peak_mem_mib * 1024.0 / self.n


@dataclass(frozen=True)
class ScalingResult:
    """The measured curve of a size sweep."""

    points: Tuple[ScalingPoint, ...]
    warmup: float
    duration: float
    seed: int

    def as_dict(self) -> dict:
        """JSON-friendly form (used by the benchmark recorder)."""
        return {
            "warmup_sim_s": self.warmup,
            "duration_sim_s": self.duration,
            "seed": self.seed,
            "s_per_sim_second": {str(p.n): round(p.s_per_sim_second, 4) for p in self.points},
            "peak_mem_mib": {str(p.n): round(p.peak_mem_mib, 2) for p in self.points},
        }


def scaling_config(n: int, seed: int = 1) -> ClusterConfig:
    """The deployment the sweep times: PlanetLab parameters at size ``n``.

    Mirrors the ``cluster300`` regression kernel (fanout 5, 10 managers)
    so curve points are comparable with the recorded baselines.
    """
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=n, fanout=5, source_fanout=5)
    lifting = replace(lifting, managers=10)
    return ClusterConfig(gossip=gossip, lifting=lifting, seed=seed)


def _measure_point(n: int, seed: int, warmup: float, duration: float) -> ScalingPoint:
    """Worker body: build, warm up, time ``duration`` simulated seconds.

    Memory is traced over construction + warm-up only: tracemalloc slows
    execution 2-4x, so tracing stops *before* the timed window starts —
    the wall-clock numbers are never taken under instrumentation.  The
    peak is dominated by the standing cluster state (the transient churn
    on top is bounded by warm-up traffic), which is the quantity the
    MiB/node curve tracks.
    """
    traced = not tracemalloc.is_tracing()
    if traced:
        tracemalloc.start()
    cluster = SimCluster(scaling_config(n, seed=seed))
    cluster.run(until=warmup)
    peak_mib = 0.0
    if traced:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peak_mib = peak / (1024.0 * 1024.0)
    events_before = cluster.sim.events_processed
    start = time.perf_counter()
    cluster.run(until=warmup + duration)
    wall = time.perf_counter() - start
    return ScalingPoint(
        n=n,
        wall_seconds=wall,
        sim_seconds=duration,
        events=cluster.sim.events_processed - events_before,
        peak_mem_mib=peak_mib,
    )


_SCALING_PARAMS = (
    Param("sizes", int, (100, 300, 1000), sequence=True,
          help="deployment sizes to measure",
          validate=lambda v: len(v) >= 1, constraint="at least one size"),
    Param("duration", float, 3.0, "timed simulated seconds per size",
          validate=lambda v: v > 0, constraint="> 0"),
    Param("warmup", float, 2.0, "warm-up simulated seconds per size",
          validate=lambda v: v >= 0, constraint=">= 0"),
    Param("seed", int, 1, "deployment seed"),
    Param("jobs", int, 1, "worker processes (keep 1 for timing baselines)"),
)


def _scaling_reduce(points, params) -> ScalingResult:
    return ScalingResult(
        points=tuple(points),
        warmup=params["warmup"],
        duration=params["duration"],
        seed=params["seed"],
    )


def _scaling_metrics(result: ScalingResult, params) -> dict:
    return {
        "warmup_sim_s": result.warmup,
        "duration_sim_s": result.duration,
        "points": [
            {
                "n": point.n,
                "s_per_sim_second": point.s_per_sim_second,
                "events_per_wall_second": point.events_per_wall_second,
                "events": point.events,
                "peak_mem_mib": point.peak_mem_mib,
                "peak_mem_kib_per_node": point.peak_mem_kib_per_node,
            }
            for point in result.points
        ],
    }


def _scaling_render(run: RunResult) -> str:
    lines = ["     n  s/sim-s   events/s  peak MiB  KiB/node"]
    for point in run.artifact.points:
        lines.append(
            f"{point.n:6d}  {point.s_per_sim_second:7.3f}"
            f"  {point.events_per_wall_second:9,.0f}"
            f"  {point.peak_mem_mib:8.1f}"
            f"  {point.peak_mem_kib_per_node:8.1f}"
        )
    return "\n".join(lines)


@scenario(
    "scaling",
    "Large-n scalability sweep — wall-clock seconds per simulated second vs n",
    params=_SCALING_PARAMS,
    reduce=_scaling_reduce,
    summarize=_scaling_metrics,
    render=_scaling_render,
    tags=("sweep", "performance", "deployment"),
    smoke={"sizes": (30,), "duration": 0.4, "warmup": 0.2},
)
def _scaling_scenario(params):
    """One timing task per deployment size (timed inside the worker)."""
    return [
        Task(
            fn=_measure_point,
            args=(int(n), params["seed"], params["warmup"], params["duration"]),
            key=int(n),
        )
        for n in params["sizes"]
    ]

