"""Figure 1 — system health in the presence of freeriders.

Three deployments of the streaming protocol:

1. **No freeriders** (baseline; LiFTinG disabled so its overhead does
   not enter the comparison).
2. **Freeriders, no LiFTinG** — with no verification there is nothing
   to fear, so the wise freeriders of the paper freeride heavily and
   the dissemination collapses.
3. **Freeriders + LiFTinG** — verification and expulsion are active;
   wise freeriders cap their degree at the point where the detection
   probability stays below 50 % (δ ≈ 0.035, §6.3.1 / Figure 12), so
   the system stays close to the baseline.

The y-axis is the fraction of nodes viewing a clear stream at a given
stream lag (see :mod:`repro.metrics.health`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro import adversary
from repro.config import FreeriderDegree, GossipParams, planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.health import HealthReport
from repro.runtime.parallel import Job
from repro.scenarios import Param, scenario

#: what "as much as possible" means when nothing watches: serve/propose
#: barely anything while still requesting everything.
HEAVY_FREERIDING = FreeriderDegree(delta1=0.8, delta2=0.7, delta3=0.8)
#: the wise degree under LiFTinG — detection probability ≈ 50 % (§6.3.1).
WISE_FREERIDING = FreeriderDegree.uniform(0.035)
#: upload capacity relative to the stream rate.  PlanetLab nodes had
#: finite uplinks; a 2× headroom makes upload the binding resource, so
#: withheld freerider bandwidth actually hurts — without a cap the
#: honest nodes would invisibly absorb all the extra load.
UPLOAD_HEADROOM = 2.0


def fig1_configs(
    *,
    n: int,
    seed: int,
    freerider_fraction: float,
    stream_rate_kbps: float,
    heavy_degree: FreeriderDegree = HEAVY_FREERIDING,
    wise_degree: FreeriderDegree = WISE_FREERIDING,
) -> Dict[str, ClusterConfig]:
    """The three Figure 1 deployment configs, built from one base.

    The deployments differ only in their adversary population and
    whether LiFTinG is armed; everything else (gossip parameters, seed,
    upload cap) is shared, so a single base config is specialised per
    deployment instead of repeating the kwargs three times.
    """
    gossip_base, lifting = planetlab_params()
    gossip = GossipParams(
        n=n,
        fanout=gossip_base.fanout,
        gossip_period=gossip_base.gossip_period,
        stream_rate_kbps=stream_rate_kbps,
        chunk_size=gossip_base.chunk_size,
        source_fanout=gossip_base.source_fanout,
        request_size=gossip_base.request_size,
    )
    base = ClusterConfig(
        gossip=gossip,
        lifting=lifting,
        seed=seed,
        lifting_enabled=False,
        upload_rate=UPLOAD_HEADROOM * stream_rate_kbps * 125.0,
    )
    return {
        "baseline": base,
        "freeriders_no_lifting": base.with_changes(
            freerider_fraction=freerider_fraction,
            adversary=adversary.spec("freerider", degree=heavy_degree.as_tuple()),
        ),
        "freeriders_with_lifting": base.with_changes(
            lifting_enabled=True,
            expulsion_enabled=True,
            freerider_fraction=freerider_fraction,
            adversary=adversary.spec("freerider", degree=wise_degree.as_tuple()),
        ),
    }


def _extract_health(cluster, *, lags, coverage, window) -> HealthReport:
    return cluster.health(lags=lags, coverage=coverage, window=window)


def _extract_expelled_count(cluster) -> int:
    return len(cluster.expulsions()[0])


#: the paper's x-axis: stream lags 0..30 s in 1 s steps.
DEFAULT_LAGS = tuple(float(lag) for lag in np.arange(0.0, 31.0, 1.0))

_FIG1_PARAMS = (
    Param("n", int, 150, "system size", validate=lambda v: v >= 8, constraint=">= 8"),
    Param("duration", float, 30.0, "simulated seconds", validate=lambda v: v > 0,
          constraint="> 0"),
    Param("seed", int, 7, "experiment seed"),
    Param("freerider_fraction", float, 0.25, "fraction of freerider nodes",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("stream_rate_kbps", float, 674.0, "source bitrate (kbps)"),
    Param("heavy_deltas", float, HEAVY_FREERIDING.as_tuple(), sequence=True,
          help="(δ1, δ2, δ3) of the unwatched freeriders",
          validate=lambda v: len(v) == 3, constraint="exactly 3 values"),
    Param("wise_deltas", float, WISE_FREERIDING.as_tuple(), sequence=True,
          help="(δ1, δ2, δ3) of the freeriders under LiFTinG",
          validate=lambda v: len(v) == 3, constraint="exactly 3 values"),
    Param("lags", float, DEFAULT_LAGS, sequence=True, help="stream lags to sample (s)"),
    Param("coverage", float, 0.97, "chunk coverage needed for a clear stream",
          validate=lambda v: 0.0 < v <= 1.0, constraint="in (0, 1]"),
    Param("jobs", int, 1, "worker processes for the three deployments (0 = all cores)"),
)


def _fig1_reduce(results, params) -> dict:
    by_name = {result.key: result for result in results}
    return {
        "lags_s": params["lags"],
        "baseline": by_name["baseline"].get("health").fractions,
        "freeriders_no_lifting": by_name["freeriders_no_lifting"].get("health").fractions,
        "freeriders_with_lifting": by_name["freeriders_with_lifting"].get("health").fractions,
        "expelled_with_lifting": by_name["freeriders_with_lifting"].get("expelled"),
    }


@scenario(
    "fig1",
    "Figure 1 — system health: baseline vs freeriders vs freeriders under LiFTinG",
    params=_FIG1_PARAMS,
    reduce=_fig1_reduce,
    tags=("figure", "deployment"),
    smoke={"n": 24, "duration": 4.0, "lags": (0.0, 2.0, 4.0)},
)
def _fig1_scenario(params):
    """Three independent deployment jobs differing only in adversaries."""
    window = (3.0, max(6.0, params["duration"] - 8.0))
    configs = fig1_configs(
        n=params["n"],
        seed=params["seed"],
        freerider_fraction=params["freerider_fraction"],
        stream_rate_kbps=params["stream_rate_kbps"],
        heavy_degree=FreeriderDegree(*params["heavy_deltas"]),
        wise_degree=FreeriderDegree(*params["wise_deltas"]),
    )
    health = partial(
        _extract_health,
        lags=tuple(float(lag) for lag in params["lags"]),
        coverage=params["coverage"],
        window=window,
    )
    return [
        Job(
            config=config,
            until=params["duration"],
            extractors=(("health", health), ("expelled", _extract_expelled_count)),
            key=name,
        )
        for name, config in configs.items()
    ]

