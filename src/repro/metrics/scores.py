"""Score distributions and detection reports (Figures 10, 11, 14).

The protocol produces a compensated, normalised score per node (via the
min-vote over its managers); this module splits the population by
ground-truth role and applies the fixed threshold ``η`` to report
detection (α) and false positives (β).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from repro.util.stats import EmpiricalDistribution


@dataclass
class DetectionReport:
    """α / β at a fixed threshold, with the underlying distributions."""

    threshold: float
    honest: EmpiricalDistribution
    freeriders: EmpiricalDistribution

    @property
    def detection(self) -> float:
        """α — fraction of freeriders at or below the threshold."""
        if len(self.freeriders) == 0:
            return 0.0
        return self.freeriders.fraction_below(self.threshold)

    @property
    def false_positives(self) -> float:
        """β — fraction of honest nodes at or below the threshold."""
        if len(self.honest) == 0:
            return 0.0
        return self.honest.fraction_below(self.threshold)

    def summary(self) -> str:
        """One-line paper-style summary."""
        return (
            f"eta={self.threshold:+.2f}: detection={self.detection:.0%}, "
            f"false positives={self.false_positives:.0%} "
            f"(honest mean={self.honest.mean:+.2f}, "
            f"freerider mean={self.freeriders.mean:+.2f})"
        )


def score_distributions(
    scores: Dict[int, float], freerider_ids: Set[int]
) -> Tuple[EmpiricalDistribution, EmpiricalDistribution]:
    """Split a node->score map into (honest, freerider) distributions."""
    honest = EmpiricalDistribution()
    freeriders = EmpiricalDistribution()
    for node_id, score in scores.items():
        if node_id in freerider_ids:
            freeriders.add(score)
        else:
            honest.add(score)
    return honest, freeriders


def detection_report(
    scores: Dict[int, float], freerider_ids: Set[int], eta: float
) -> DetectionReport:
    """Apply threshold ``eta`` to a score map."""
    honest, freeriders = score_distributions(scores, freerider_ids)
    return DetectionReport(threshold=eta, honest=honest, freeriders=freeriders)
