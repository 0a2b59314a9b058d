"""Knee detection: where goodput stops tracking offered load.

Below saturation an open-loop system delivers (to within noise) exactly
what is offered, so the goodput/offered ratio sits near 1.0.  Past the
knee the ingress queue fills, drops begin, and goodput flatlines while
offered load keeps climbing — the ratio falls.  The knee is defined as
the last phase whose ratio stays at or above ``tolerance`` *before* the
first phase that falls below it; everything at or after that first
failing phase is "beyond the knee".

This is deliberately a pure function over per-phase (offered, goodput)
pairs so it can be unit-tested without a live transport and reused on
recorded sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.util.validation import require

__all__ = ["KneeReport", "detect_knee"]


@dataclass(frozen=True)
class KneeReport:
    """Outcome of a stepped-rate sweep.

    ``knee_rate`` is the highest offered rate that still tracked
    (``None`` if even the first phase failed); ``saturated`` is False
    when every phase tracked — the sweep never pushed past the knee and
    the true knee lies above ``max(offered)``.
    """

    tolerance: float
    offered: List[float]
    goodput: List[float]
    ratios: List[float]
    saturated: bool
    knee_phase: Optional[int] = None  # last tracking phase index
    first_saturated_phase: Optional[int] = None
    knee_rate: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "tolerance": self.tolerance,
            "offered": list(self.offered),
            "goodput": list(self.goodput),
            "ratios": list(self.ratios),
            "saturated": self.saturated,
            "knee_phase": self.knee_phase,
            "first_saturated_phase": self.first_saturated_phase,
            "knee_rate": self.knee_rate,
        }


def detect_knee(
    offered: Sequence[float],
    goodput: Sequence[float],
    tolerance: float = 0.9,
) -> KneeReport:
    """Find the knee in a stepped-rate sweep.

    ``offered[i]`` / ``goodput[i]`` are the offered and delivered rates
    of phase ``i`` (any consistent unit — msgs/s or raw counts over
    equal-length phases).  ``tolerance`` is the minimum goodput/offered
    ratio that still counts as "tracking".
    """
    require(len(offered) == len(goodput), "offered and goodput must align")
    require(len(offered) >= 1, "need at least one phase")
    require(0.0 < tolerance <= 1.0, "tolerance must be in (0, 1]")

    ratios = [
        (g / o) if o > 0.0 else 0.0
        for o, g in zip(offered, goodput)
    ]
    first_saturated: Optional[int] = None
    for index, ratio in enumerate(ratios):
        if ratio < tolerance:
            first_saturated = index
            break

    if first_saturated is None:
        # Every phase tracked: no knee inside the sweep range.
        return KneeReport(
            tolerance=tolerance,
            offered=list(offered),
            goodput=list(goodput),
            ratios=ratios,
            saturated=False,
            knee_phase=len(offered) - 1,
            first_saturated_phase=None,
            knee_rate=None,
        )

    knee_phase = first_saturated - 1 if first_saturated > 0 else None
    return KneeReport(
        tolerance=tolerance,
        offered=list(offered),
        goodput=list(goodput),
        ratios=ratios,
        saturated=True,
        knee_phase=knee_phase,
        first_saturated_phase=first_saturated,
        knee_rate=offered[knee_phase] if knee_phase is not None else None,
    )
