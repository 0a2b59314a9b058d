"""Figure 10 — impact of message losses on honest scores.

A 10,000-honest-node system in steady state, one gossip period, both
verifications active (``p_dcc = 1``), 7 % loss, f = 12, |R| = 4.
Scores are compensated by ``-b̃ = -72.95`` (Eq. 5); the paper observes
a mean within 0.01 of zero and an experimental standard deviation of
25.6.
"""

from __future__ import annotations

import numpy as np

from repro.config import analysis_params
from repro.mc.blame_model import BlameModel, simulate_scores
from repro.runtime.parallel import Task
from repro.scenarios import Param, scenario
from repro.util.rng import make_generator
from repro.util.stats import histogram_density


def _compute_fig10(n: int, seed: int) -> dict:
    """Sample the one-period compensated score distribution (worker body)
    and reduce it to its moments and the histogram the paper plots."""
    gossip, lifting = analysis_params()
    model = BlameModel(
        fanout=gossip.fanout,
        request_size=gossip.request_size,
        p_reception=lifting.p_reception,
        p_dcc=lifting.p_dcc,
    )
    rng = make_generator(seed, "fig10")
    sample = simulate_scores(model, rng, n_honest=n, rounds=1)
    scores = sample.honest
    centers, fractions = histogram_density(scores, bins=60, value_range=(-250.0, 50.0))
    return {
        "compensation": sample.compensation,
        "mean": float(np.mean(scores)),
        "stddev": float(np.std(scores, ddof=1)),
        "samples": int(scores.size),
        "pdf": {"centers": centers, "fractions": fractions},
    }


@scenario(
    "fig10",
    "Figure 10 — one-period compensated honest-score distribution under losses",
    params=(
        Param("n", int, 10_000, "honest nodes sampled",
              validate=lambda v: v >= 2, constraint=">= 2"),
        Param("seed", int, 11, "Monte-Carlo seed"),
    ),
    tags=("figure", "monte-carlo"),
    smoke={"n": 2_000},
)
def _fig10_scenario(params):
    return [Task(fn=_compute_fig10, args=(params["n"], params["seed"]), key="fig10")]

