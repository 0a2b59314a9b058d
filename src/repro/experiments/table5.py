"""Table 5 — practical bandwidth overhead.

Cross-checking and blaming overhead (verification + reputation bytes
relative to data bytes) for ``p_dcc ∈ {0, 0.5, 1}`` and stream rates
{674, 1082, 2036} kbps.  Paper reference (300 PlanetLab nodes)::

    p_dcc                0       0.5      1
    674 kbps stream    1.07 %   4.53 %   8.01 %
    1082 kbps stream   0.69 %   3.51 %   5.04 %
    2036 kbps stream   0.38 %   1.69 %   2.76 %

Two structural facts must reproduce: overhead grows with ``p_dcc``
(but is non-zero at 0 because acks are always sent), and overhead
*decreases* with the stream rate (verification traffic scales with the
gossip rate, not the payload volume).
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.overhead import OverheadReport
from repro.runtime.parallel import Job
from repro.scenarios import Param, scenario

PAPER_OVERHEAD_PERCENT = {
    (674.0, 0.0): 1.07,
    (674.0, 0.5): 4.53,
    (674.0, 1.0): 8.01,
    (1082.0, 0.0): 0.69,
    (1082.0, 0.5): 3.51,
    (1082.0, 1.0): 5.04,
    (2036.0, 0.0): 0.38,
    (2036.0, 0.5): 1.69,
    (2036.0, 1.0): 2.76,
}


def _extract_overhead(cluster) -> OverheadReport:
    return cluster.overhead()


_TABLE5_PARAMS = (
    Param("n", int, 100, "system size", validate=lambda v: v >= 8, constraint=">= 8"),
    Param("duration", float, 10.0, "simulated seconds per grid cell",
          validate=lambda v: v > 0, constraint="> 0"),
    Param("seed", int, 31, "deployment seed (shared by every cell)"),
    Param("rates_kbps", float, (674.0, 1082.0, 2036.0), sequence=True,
          help="stream rates to sweep (kbps)"),
    Param("p_dcc_values", float, (0.0, 0.5, 1.0), sequence=True,
          help="cross-checking probabilities to sweep"),
    Param("jobs", int, 1, "worker processes for the grid cells (0 = all cores)"),
)


def _table5_reduce(results, params) -> dict:
    cells = {result.key: result.get("overhead") for result in results}
    return {
        "cells": [
            {"rate_kbps": rate, "p_dcc": p_dcc,
             "overhead_percent": report.overhead_percent,
             "paper_percent": PAPER_OVERHEAD_PERCENT.get((rate, p_dcc), float("nan"))}
            for (rate, p_dcc), report in sorted(cells.items())
        ]
    }


@scenario(
    "table5",
    "Table 5 — bandwidth overhead over the stream-rate × p_dcc grid",
    params=_TABLE5_PARAMS,
    reduce=_table5_reduce,
    tags=("table", "sweep", "deployment"),
    smoke={"n": 30, "duration": 3.0, "rates_kbps": (674.0,),
           "p_dcc_values": (0.0, 1.0)},
)
def _table5_scenario(params):
    """One independent deployment job per ``(rate, p_dcc)`` grid cell."""
    gossip_base, lifting_base = planetlab_params()
    return [
        Job(
            config=ClusterConfig(
                gossip=replace(gossip_base, n=params["n"], stream_rate_kbps=rate),
                lifting=replace(lifting_base, p_dcc=p_dcc),
                seed=params["seed"],
            ),
            until=params["duration"],
            extractors=(("overhead", _extract_overhead),),
            key=(rate, p_dcc),
        )
        for rate in params["rates_kbps"]
        for p_dcc in params["p_dcc_values"]
    ]
