"""Figure 12 — detection probability and bandwidth gain vs δ.

Sweeps the uniform degree of freeriding ``δ1 = δ2 = δ3 = δ`` and plots

* the fraction of freeriders detected at the fixed threshold
  ``η = -9.75`` after ``r = 50`` periods (left axis), and
* the upload bandwidth saved, ``1-(1-δ)³`` (right axis).

Paper landmarks: δ = 0.05 → α ≈ 65 %; δ ≥ 0.1 → α > 99 %; a 10 % gain
(δ ≈ 0.035, FlightPath's rationality threshold) is caught half the
time.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.config import FreeriderDegree, analysis_params
from repro.mc.blame_model import BlameModel, simulate_scores
from repro.scenarios import Param, scenario
from repro.scenarios.parallel import Task
from repro.util.rng import make_generator


def _fig12_point(
    model: BlameModel,
    seed: int,
    index: int,
    delta: float,
    eta: float,
    rounds: int,
    samples_per_point: int,
) -> Tuple[float, float, float]:
    """One sweep point ``(α, β, gain)`` from its own derived RNG stream."""
    degree = FreeriderDegree.uniform(float(delta))
    rng = make_generator(seed, f"fig12/delta/{index}")
    sample = simulate_scores(
        model,
        rng,
        n_honest=samples_per_point,
        n_freeriders=samples_per_point,
        degree=degree,
        rounds=rounds,
    )
    return (
        sample.detection_fraction(eta),
        sample.false_positive_fraction(eta),
        degree.bandwidth_gain,
    )


#: the paper's δ sweep: fine steps through the wise region, coarser above.
DEFAULT_DELTAS = tuple(
    float(delta)
    for delta in np.concatenate(
        [np.arange(0.0, 0.06, 0.005), np.arange(0.06, 0.21, 0.01)]
    )
)

_FIG12_PARAMS = (
    Param("deltas", float, DEFAULT_DELTAS, sequence=True,
          help="degrees of freeriding δ to sweep"),
    Param("rounds", int, 50, "gossip periods accumulated",
          validate=lambda v: v >= 1, constraint=">= 1"),
    Param("samples_per_point", int, 3_000, "Monte-Carlo samples per population",
          validate=lambda v: v >= 1, constraint=">= 1"),
    Param("seed", int, 17, "Monte-Carlo seed"),
    Param("jobs", int, 1, "worker processes for the sweep points (0 = all cores)"),
)


def _fig12_reduce(points, params) -> dict:
    _gossip, lifting = analysis_params()
    return {
        "eta": lifting.eta,
        "deltas": params["deltas"],
        "detection": [alpha for alpha, _beta, _gain in points],
        "false_positives": [beta for _alpha, beta, _gain in points],
        "gain": [gain for _alpha, _beta, gain in points],
    }


@scenario(
    "fig12",
    "Figure 12 — detection probability and bandwidth gain vs the degree δ",
    params=_FIG12_PARAMS,
    reduce=_fig12_reduce,
    tags=("figure", "monte-carlo", "sweep"),
    smoke={"deltas": (0.0, 0.05, 0.1), "rounds": 10, "samples_per_point": 500},
)
def _fig12_scenario(params):
    """One independent Monte-Carlo task per sweep point."""
    gossip, lifting = analysis_params()
    model = BlameModel(
        fanout=gossip.fanout,
        request_size=gossip.request_size,
        p_reception=lifting.p_reception,
        p_dcc=lifting.p_dcc,
    )
    return [
        Task(
            fn=_fig12_point,
            args=(
                model,
                params["seed"],
                index,
                float(delta),
                lifting.eta,
                params["rounds"],
                params["samples_per_point"],
            ),
            key=float(delta),
        )
        for index, delta in enumerate(params["deltas"])
    ]

