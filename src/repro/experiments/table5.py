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

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro.config import planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.metrics.overhead import OverheadReport
from repro.runtime.parallel import Job
from repro.scenarios import Param, RunResult, scenario

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


@dataclass
class Table5Result:
    """Overhead percentage per (stream rate, p_dcc) cell."""

    cells: Dict[Tuple[float, float], OverheadReport]

    def rows(self) -> Sequence[Tuple[float, float, float, float]]:
        """(rate, p_dcc, measured %, paper %) rows."""
        out = []
        for (rate, p_dcc), report in sorted(self.cells.items()):
            out.append(
                (
                    rate,
                    p_dcc,
                    report.overhead_percent,
                    PAPER_OVERHEAD_PERCENT.get((rate, p_dcc), float("nan")),
                )
            )
        return out


def _extract_overhead(cluster) -> OverheadReport:
    return cluster.overhead()


def table5_jobs(
    *,
    n: int = 100,
    duration: float = 10.0,
    seed: int = 31,
    rates_kbps: Sequence[float] = (674.0, 1082.0, 2036.0),
    p_dcc_values: Sequence[float] = (0.0, 0.5, 1.0),
) -> List[Job]:
    """One independent deployment job per ``(rate, p_dcc)`` grid cell."""
    gossip_base, lifting_base = planetlab_params()
    job_list: List[Job] = []
    for rate in rates_kbps:
        for p_dcc in p_dcc_values:
            gossip = replace(gossip_base, n=n, stream_rate_kbps=rate)
            lifting = replace(lifting_base, p_dcc=p_dcc)
            job_list.append(
                Job(
                    config=ClusterConfig(gossip=gossip, lifting=lifting, seed=seed),
                    until=duration,
                    extractors=(("overhead", _extract_overhead),),
                    key=(rate, p_dcc),
                )
            )
    return job_list


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


def _table5_reduce(results, params) -> Table5Result:
    return Table5Result(
        cells={result.key: result.get("overhead") for result in results}
    )


def _table5_metrics(result: Table5Result, params) -> dict:
    return {
        "cells": [
            {"rate_kbps": rate, "p_dcc": p_dcc, "overhead_percent": measured,
             "paper_percent": paper}
            for rate, p_dcc, measured, paper in result.rows()
        ]
    }


def _table5_render(run: RunResult) -> str:
    lines = ["rate(kbps)  p_dcc  measured   paper"]
    for rate, p_dcc, measured, paper in run.artifact.rows():
        lines.append(f"{rate:9.0f}   {p_dcc:4.1f}   {measured:6.2f}%   {paper:5.2f}%")
    return "\n".join(lines)


@scenario(
    "table5",
    "Table 5 — bandwidth overhead over the stream-rate × p_dcc grid",
    params=_TABLE5_PARAMS,
    reduce=_table5_reduce,
    summarize=_table5_metrics,
    render=_table5_render,
    tags=("table", "sweep", "deployment"),
    smoke={"n": 30, "duration": 3.0, "rates_kbps": (674.0,),
           "p_dcc_values": (0.0, 1.0)},
)
def _table5_scenario(params):
    """One independent deployment job per ``(rate, p_dcc)`` grid cell."""
    return table5_jobs(
        n=params["n"],
        duration=params["duration"],
        seed=params["seed"],
        rates_kbps=params["rates_kbps"],
        p_dcc_values=params["p_dcc_values"],
    )

