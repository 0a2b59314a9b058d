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

import numpy as np

from repro.analysis.entropy_analysis import max_fanout_entropy
from repro.config import analysis_params
from repro.mc.entropy import sample_fanin_entropies, sample_fanout_entropies
from repro.scenarios import Param, scenario
from repro.scenarios.parallel import Task
from repro.util.rng import make_generator


def _compute_fig13(n: int, seed: int) -> dict:
    """Sample both entropy distributions (worker body): their observed
    (min, max) and the fraction of honest histories below γ."""
    gossip, lifting = analysis_params()
    history_picks = lifting.history_periods * gossip.fanout
    rng = make_generator(seed, "fig13")
    fanout = sample_fanout_entropies(rng, n, history_picks)
    fanin, sizes = sample_fanin_entropies(rng, n, history_picks)
    return {
        "gamma": lifting.gamma,
        "max_entropy": max_fanout_entropy(lifting.history_periods, gossip.fanout),
        "fanout_range": (float(fanout.min()), float(fanout.max())),
        "fanin_range": (float(fanin.min()), float(fanin.max())),
        "fanout_false_expulsions": float(np.mean(fanout < lifting.gamma)),
        "fanin_false_expulsions": float(np.mean(fanin < lifting.gamma)),
        "fanin_size_mean": float(sizes.mean()),
    }


@scenario(
    "fig13",
    "Figure 13 — fanout/fanin history entropies vs the audit threshold γ",
    params=(
        Param("n", int, 10_000, "histories sampled",
              validate=lambda v: v >= 2, constraint=">= 2"),
        Param("seed", int, 19, "Monte-Carlo seed"),
    ),
    tags=("figure", "monte-carlo"),
    smoke={"n": 1_500},
)
def _fig13_scenario(params):
    return [Task(fn=_compute_fig13, args=(params["n"], params["seed"]), key="fig13")]

