"""Figure 11 — score distributions with freeriders.

10,000 nodes of which 1,000 are freeriders of degree
``Δ = (0.1, 0.1, 0.1)``, after ``r = 50`` gossip periods, analysis
parameters (f = 12, |R| = 4, 7 % loss, p_dcc = 1).  The paper observes
two disjoint modes separated by a gap, and uses the threshold
``η = -9.75`` (chosen for < 1 % false positives).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import numpy as np

from repro.config import FreeriderDegree, analysis_params
from repro.mc.blame_model import BlameModel, ScoreSample, simulate_scores
from repro.scenarios import Param, scenario
from repro.scenarios.parallel import Task
from repro.util.rng import make_generator


def _split_evenly(total: int, parts: int) -> List[int]:
    """Deterministic near-even split (remainder to the earliest parts)."""
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


def _fig11_shard(
    model: BlameModel,
    seed: int,
    shard: int,
    n_honest: int,
    n_freeriders: int,
    degree: FreeriderDegree,
    rounds: int,
) -> ScoreSample:
    """One population shard, sampled from its own derived RNG stream."""
    rng = make_generator(seed, f"fig11/shard/{shard}")
    return simulate_scores(
        model,
        rng,
        n_honest=n_honest,
        n_freeriders=n_freeriders,
        degree=degree,
        rounds=rounds,
    )


_FIG11_PARAMS = (
    Param("n", int, 10_000, "total population",
          validate=lambda v: v >= 2, constraint=">= 2"),
    Param("freeriders", int, 1_000, "freeriders within the population",
          validate=lambda v: v >= 0, constraint=">= 0"),
    Param("rounds", int, 50, "gossip periods accumulated",
          validate=lambda v: v >= 1, constraint=">= 1"),
    Param("delta", float, 0.1, "uniform degree of freeriding δ",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("seed", int, 13, "Monte-Carlo seed"),
    Param("jobs", int, 1, "worker processes for the shards (0 = all cores)"),
    Param("shards", int, 8, "fixed sub-populations (determines RNG streams)",
          validate=lambda v: v >= 1, constraint=">= 1"),
)


def _fig11_reduce(samples, params) -> dict:
    """α and β at the paper's threshold η, and the gap between the honest
    low tail (1st percentile) and the freerider high tail (99th
    percentile): positive = disjoint modes."""
    _gossip, lifting = analysis_params()
    sample = replace(
        samples[0],
        honest=np.concatenate([s.honest for s in samples]),
        freeriders=np.concatenate([s.freeriders for s in samples]),
    )
    return {
        "eta": lifting.eta,
        "detection": sample.detection_fraction(lifting.eta),
        "false_positives": sample.false_positive_fraction(lifting.eta),
        "gap": float(
            np.quantile(sample.honest, 0.01) - np.quantile(sample.freeriders, 0.99)
        ),
        "honest_samples": int(sample.honest.size),
        "freerider_samples": int(sample.freeriders.size),
    }


@scenario(
    "fig11",
    "Figure 11 — honest vs freerider score distributions after r periods",
    params=_FIG11_PARAMS,
    reduce=_fig11_reduce,
    tags=("figure", "monte-carlo"),
    smoke={"n": 800, "freeriders": 80, "rounds": 10},
)
def _fig11_scenario(params):
    """One Monte-Carlo task per fixed population shard."""
    gossip, lifting = analysis_params()
    model = BlameModel(
        fanout=gossip.fanout,
        request_size=gossip.request_size,
        p_reception=lifting.p_reception,
        p_dcc=lifting.p_dcc,
    )
    degree = FreeriderDegree.uniform(params["delta"])
    n, freeriders = params["n"], params["freeriders"]
    shards = max(1, params["shards"])
    return [
        Task(
            fn=_fig11_shard,
            args=(model, params["seed"], shard, shard_honest, shard_freeriders,
                  degree, params["rounds"]),
            key=shard,
        )
        for shard, (shard_honest, shard_freeriders) in enumerate(
            zip(_split_evenly(n - freeriders, shards), _split_evenly(freeriders, shards))
        )
    ]

