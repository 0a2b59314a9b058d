"""Large-n scalability sweep: wall-clock cost per simulated second vs n.

Not a paper artefact — LiFTinG was validated on ~300 PlanetLab nodes,
and the ROADMAP's north star needs single deployments far beyond that.
This experiment measures how expensive one simulated second of a
PlanetLab-style deployment is as the system size grows, and how much
memory each node's state takes (see the "Scaling with n" section of
``docs/PERFORMANCE.md``; a tier-1 test sweeps it to n = 2000).

Timing runs *inside* the worker around a warmed-up cluster, so a
multi-process sweep (``jobs > 1``) still times each deployment
correctly — but concurrent workers contend for cores, so curves meant
as performance readings should be taken with ``jobs=1``; ``jobs``
exists for functional sweeps where wall accuracy is secondary.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

from repro.config import planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.runtime.parallel import Task
from repro.scenarios import Param, scenario


def scaling_config(n: int, seed: int = 1) -> ClusterConfig:
    """The deployment the sweep times: PlanetLab parameters at size ``n``
    with fanout 5 and 10 managers."""
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=n, fanout=5, source_fanout=5)
    lifting = replace(lifting, managers=10)
    return ClusterConfig(gossip=gossip, lifting=lifting, seed=seed)


def _measure_point(n: int, seed: int, warmup: float, duration: float) -> dict:
    """Worker body: build, warm up, time ``duration`` simulated seconds.

    Memory is traced over construction + warm-up only: tracemalloc slows
    execution 2-4x, so tracing stops *before* the timed window starts —
    the wall-clock numbers are never taken under instrumentation.  The
    peak is dominated by the standing cluster state (the transient churn
    on top is bounded by warm-up traffic), which is the quantity the
    KiB/node curve tracks: it must bend *down* as n grows (per-node state
    is bounded, fixed overheads amortise).  The peak reads 0.0 when the
    worker could not trace (nested tracing).
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
    events = cluster.sim.events_processed - events_before
    return {
        "n": n,
        "s_per_sim_second": wall / duration,
        "events_per_wall_second": events / wall,
        "events": events,
        "peak_mem_mib": peak_mib,
        "peak_mem_kib_per_node": peak_mib * 1024.0 / n,
    }


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


def _scaling_reduce(points, params) -> dict:
    return {
        "warmup_sim_s": params["warmup"],
        "duration_sim_s": params["duration"],
        "points": list(points),
    }


@scenario(
    "scaling",
    "Large-n scalability sweep — wall-clock seconds per simulated second vs n",
    params=_SCALING_PARAMS,
    reduce=_scaling_reduce,
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

