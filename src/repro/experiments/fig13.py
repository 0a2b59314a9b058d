"""Figure 13 — entropy of the nodes' histories under full membership.

10,000 nodes, history of ``n_h · f = 600`` partners (n_h = 50, f = 12):

* fanout entropies observed in [9.11, 9.21] against the maximum
  ``log2 600 = 9.23`` (Figure 13a);
* fanin entropies in [8.98, 9.34] — fanin sizes fluctuate around 600 so
  the fanout bound does not apply (Figure 13b);
* the threshold γ = 8.95 leaves a negligible false-expulsion
  probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.analysis.entropy_analysis import max_fanout_entropy
from repro.config import analysis_params
from repro.mc.entropy import sample_fanin_entropies, sample_fanout_entropies
from repro.runtime.parallel import Task
from repro.scenarios import Param, scenario
from repro.util.rng import make_generator


@dataclass
class Fig13Result:
    """Entropy samples for both history directions."""

    fanout_entropies: np.ndarray
    fanin_entropies: np.ndarray
    fanin_sizes: np.ndarray
    gamma: float
    max_entropy: float

    @property
    def fanout_range(self) -> Tuple[float, float]:
        """Observed (min, max) fanout entropy."""
        return float(self.fanout_entropies.min()), float(self.fanout_entropies.max())

    @property
    def fanin_range(self) -> Tuple[float, float]:
        """Observed (min, max) fanin entropy."""
        return float(self.fanin_entropies.min()), float(self.fanin_entropies.max())

    @property
    def fanout_false_expulsions(self) -> float:
        """Fraction of honest fanout histories below γ."""
        return float(np.mean(self.fanout_entropies < self.gamma))

    @property
    def fanin_false_expulsions(self) -> float:
        """Fraction of honest fanin histories below γ."""
        return float(np.mean(self.fanin_entropies < self.gamma))


def _compute_fig13(n: int, seed: int) -> Fig13Result:
    """Sample both entropy distributions (worker body)."""
    gossip, lifting = analysis_params()
    history_picks = lifting.history_periods * gossip.fanout
    rng = make_generator(seed, "fig13")
    fanout = sample_fanout_entropies(rng, n, history_picks)
    fanin, sizes = sample_fanin_entropies(rng, n, history_picks)
    return Fig13Result(
        fanout_entropies=fanout,
        fanin_entropies=fanin,
        fanin_sizes=sizes,
        gamma=lifting.gamma,
        max_entropy=max_fanout_entropy(lifting.history_periods, gossip.fanout),
    )


def _fig13_metrics(result: Fig13Result, params) -> dict:
    fanout_lo, fanout_hi = result.fanout_range
    fanin_lo, fanin_hi = result.fanin_range
    return {
        "gamma": result.gamma,
        "max_entropy": result.max_entropy,
        "fanout_range": (fanout_lo, fanout_hi),
        "fanin_range": (fanin_lo, fanin_hi),
        "fanout_false_expulsions": result.fanout_false_expulsions,
        "fanin_false_expulsions": result.fanin_false_expulsions,
        "fanin_size_mean": float(result.fanin_sizes.mean()),
    }


@scenario(
    "fig13",
    "Figure 13 — fanout/fanin history entropies vs the audit threshold γ",
    params=(
        Param("n", int, 10_000, "histories sampled",
              validate=lambda v: v >= 2, constraint=">= 2"),
        Param("seed", int, 19, "Monte-Carlo seed"),
    ),
    summarize=_fig13_metrics,
    tags=("figure", "monte-carlo"),
    smoke={"n": 1_500},
)
def _fig13_scenario(params):
    return [Task(fn=_compute_fig13, args=(params["n"], params["seed"]), key="fig13")]

