"""Empirical calibration of compensation and threshold.

The closed-form compensation ``b̃`` (Eq. 5) assumes the idealised
steady state of the analysis: every node interacts with exactly ``f``
servers and ``f`` partners per period and requests a constant ``|R|``
chunks.  A real deployment interacts less (chunks are deduplicated, so
only a subset of the ``f`` proposals received each period leads to a
request), so applying the closed form verbatim over-compensates and
shifts honest scores above zero.

The paper's stance is that "the theoretical analysis allows system
designers to set its parameters to their optimal values" (§9); for the
packet-level simulator the equivalent designer step is an *empirical*
calibration run: deploy a small honest-only system with the production
parameters, measure the mean wrongful blame per node per period, and
use that as the compensation.  The same run yields the honest score
spread, from which a threshold with a target false-positive rate is
derived (the paper picked η = −9.75 "so that the probability of false
positive is lower than 1 %", §6.3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from repro.config import GossipParams, LiftingParams, planetlab_params
from repro.experiments.cluster import ClusterConfig
from repro.runtime.parallel import Job, run_jobs
from repro.scenarios import Param, scenario
from repro.util.validation import require


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of an honest-only calibration run."""

    #: measured mean blame per node per period (the compensation to use).
    compensation: float
    #: standard deviation of compensated normalised scores at the end.
    score_stddev: float
    #: periods the calibration covered.
    periods: float
    #: number of nodes measured.
    n: int

    def eta_for_false_positives(self, target_beta: float = 0.01) -> float:
        """A threshold with (Gaussian-approximated) β ≤ ``target_beta``.

        Honest normalised scores are approximately normal around 0; the
        ``target_beta`` quantile gives the paper's "η such that β < 1 %"
        rule.  Falls back to Tchebychev when scipy's normal quantile is
        degenerate.
        """
        require(0.0 < target_beta < 0.5, "target_beta must be in (0, 0.5)")
        from scipy.stats import norm

        quantile = float(norm.ppf(target_beta))
        return quantile * self.score_stddev

    def metrics(self) -> dict:
        """The ``calibration`` scenario's metrics payload."""
        return {
            "compensation": self.compensation,
            "score_stddev": self.score_stddev,
            "periods": self.periods,
            "n": self.n,
            "eta_false_positives_1pct": self.eta_for_false_positives(0.01),
        }


def _extract_calibration(cluster, *, duration: float) -> CalibrationResult:
    """Worker-side reduction of a calibration cluster to its result."""
    gossip = cluster.config.gossip
    # Min-vote with compensation 0 returns -B_max / r; recover per-period
    # blame rates from it.
    raw_scores = cluster.scores()
    elapsed_periods = duration / gossip.gossip_period
    blame_rates = np.array([-s for s in raw_scores.values()])  # B_max / r
    compensation = float(np.median(blame_rates))
    compensated = compensation - blame_rates  # normalised scores at end
    # Robust spread: IQR / 1.349 approximates the healthy population's σ.
    q25, q75 = np.percentile(compensated, [25.0, 75.0])
    robust_std = float((q75 - q25) / 1.349)
    return CalibrationResult(
        compensation=compensation,
        score_stddev=robust_std,
        periods=elapsed_periods,
        n=gossip.n,
    )


def calibration_job(
    gossip: GossipParams,
    lifting: LiftingParams,
    *,
    seed: int = 1234,
    duration: float = 15.0,
    n: Optional[int] = None,
    loss_rate: float = 0.04,
    degraded_fraction: float = 0.0,
    degraded_loss: float = 0.12,
    degraded_upload: Optional[float] = None,
    key="calibration",
) -> Job:
    """The honest-only calibration deployment as a runnable :class:`Job`.

    Used directly by experiments (e.g. Figure 14) that want the
    calibration to go through the same parallel runner as their other
    deployments; :func:`calibrate` is the run-it-now convenience.
    """
    require(duration > 0, "duration must be > 0")
    size = min(gossip.n, 120) if n is None else n
    config = ClusterConfig(
        gossip=replace(gossip, n=size),
        lifting=lifting,
        seed=seed,
        loss_rate=loss_rate,
        degraded_fraction=degraded_fraction,
        degraded_loss=degraded_loss,
        degraded_upload=degraded_upload,
        lifting_enabled=True,
        expulsion_enabled=False,
        compensation=0.0,  # raw blames, no compensation
    )
    return Job(
        config=config,
        until=duration,
        extractors=(
            ("calibration", partial(_extract_calibration, duration=duration)),
        ),
        key=key,
    )


_CALIBRATION_PARAMS = (
    Param("n", int, 120, "calibration deployment size",
          validate=lambda v: v >= 8, constraint=">= 8"),
    Param("duration", float, 15.0, "simulated seconds",
          validate=lambda v: v > 0, constraint="> 0"),
    Param("seed", int, 1234, "deployment seed"),
    Param("loss", float, 0.04, "datagram loss rate of the environment",
          validate=lambda v: 0.0 <= v < 1.0, constraint="in [0, 1)"),
    Param("p_dcc", float, 1.0, "cross-checking probability",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("degraded_fraction", float, 0.0, "fraction of poorly connected nodes",
          validate=lambda v: 0.0 <= v <= 1.0, constraint="in [0, 1]"),
    Param("degraded_loss", float, 0.12, "extra endpoint loss of degraded nodes"),
    Param("degraded_upload", float, 0.0,
          "upload cap of degraded nodes in bytes/s (0 = uncapped)"),
)


def _calibration_reduce(results, params) -> dict:
    [result] = results
    return result.get("calibration").metrics()


@scenario(
    "calibration",
    "Empirical compensation/threshold calibration on an honest deployment",
    params=_CALIBRATION_PARAMS,
    reduce=_calibration_reduce,
    tags=("calibration", "deployment"),
    smoke={"n": 24, "duration": 4.0},
)
def _calibration_scenario(params):
    """One honest-only deployment job in the PlanetLab environment.

    For calibration in a *custom* environment (arbitrary
    ``GossipParams``/``LiftingParams`` objects), use :func:`calibrate`
    directly — parameter objects are not JSON-declarable.
    """
    gossip, lifting = planetlab_params()
    lifting = replace(lifting, p_dcc=params["p_dcc"])
    return [
        calibration_job(
            gossip,
            lifting,
            seed=params["seed"],
            duration=params["duration"],
            n=params["n"],
            loss_rate=params["loss"],
            degraded_fraction=params["degraded_fraction"],
            degraded_loss=params["degraded_loss"],
            degraded_upload=params["degraded_upload"] or None,
        )
    ]


def calibrate(
    gossip: GossipParams,
    lifting: LiftingParams,
    *,
    seed: int = 1234,
    duration: float = 15.0,
    n: Optional[int] = None,
    loss_rate: float = 0.04,
    degraded_fraction: float = 0.0,
    degraded_loss: float = 0.12,
    degraded_upload: Optional[float] = None,
) -> CalibrationResult:
    """Run an honest-only deployment and measure blame statistics.

    ``n`` defaults to ``min(gossip.n, 120)`` — blame rates per node are
    size-independent once the system is well mixed, so the calibration
    can run on a smaller deployment than the production one.

    When the production deployment contains poorly connected nodes the
    calibration environment should too (pass ``degraded_fraction``) —
    their losses inflate everybody's wrongful blames.  The compensation
    uses the *median* per-node blame rate, which is robust against the
    degraded nodes' own heavy blame tail (the designer cannot tell
    degraded nodes apart a priori); the score spread is likewise taken
    from the inter-quartile range so that the derived threshold targets
    the healthy population.
    """
    job = calibration_job(
        gossip,
        lifting,
        seed=seed,
        duration=duration,
        n=n,
        loss_rate=loss_rate,
        degraded_fraction=degraded_fraction,
        degraded_loss=degraded_loss,
        degraded_upload=degraded_upload,
    )
    [result] = run_jobs([job])
    return result.get("calibration")
