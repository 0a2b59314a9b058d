"""Streaming and empirical statistics.

The experiments report score distributions (Figures 10, 11, 14), entropy
distributions (Figure 13) and detection rates (Figure 12).  This module
provides the common statistical plumbing: the CDF evaluated at a
threshold, and normalised histograms matching the "fraction of nodes"
y-axes used throughout the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.util.validation import require


def cdf_at(samples: Sequence[float], threshold: float) -> float:
    """Fraction of ``samples`` that are ``<= threshold``.

    This is the primitive behind detection (fraction of freerider scores
    below the expulsion threshold) and false positives (fraction of honest
    scores below it).
    """
    arr = np.asarray(samples, dtype=float)
    require(arr.size > 0, "cdf_at needs at least one sample")
    return float(np.count_nonzero(arr <= threshold)) / arr.size


def histogram_density(
    samples: Sequence[float], bins: int = 50, value_range: Tuple[float, float] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(bin_centers, fraction_of_samples)`` for a histogram.

    Unlike :func:`numpy.histogram` with ``density=True``, the y-values are
    *fractions of samples per bin* — the unit used on the paper's pdf
    plots (Figures 10, 11a, 13).
    """
    arr = np.asarray(samples, dtype=float)
    require(arr.size > 0, "histogram_density needs at least one sample")
    counts, edges = np.histogram(arr, bins=bins, range=value_range)
    centers = (edges[:-1] + edges[1:]) / 2.0
    return centers, counts.astype(float) / arr.size


@dataclass
class EmpiricalDistribution:
    """A bag of scalar samples with the summaries the paper reports.

    Collects values (scores) and exposes their mean and the CDF at a
    threshold — what a detection report needs.
    """

    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Record one sample."""
        self.samples.append(float(value))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return float(np.mean(self.samples)) if self.samples else 0.0

    def fraction_below(self, threshold: float) -> float:
        """Fraction of samples ``<= threshold``."""
        return cdf_at(self.samples, threshold)
