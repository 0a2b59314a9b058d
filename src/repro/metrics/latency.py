"""The exact percentile the load generator's latency histogram approximates.

The test suite uses :func:`exact_percentile` as the sorted-array oracle
that the log-linear histogram must match to within one bucket width.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.util.validation import require

__all__ = ["exact_percentile"]


def exact_percentile(values: Sequence[float], q: float) -> float:
    """The exact q-th percentile under the nearest-rank definition.

    ``ceil(q/100 * n)``-th smallest value (rank at least 1) — the same
    rank rule :meth:`repro.loadgen.histogram.LatencyHistogram.percentile`
    approximates, so the two are directly comparable in tests.
    """
    require(len(values) > 0, "percentile of an empty sample")
    require(0.0 <= q <= 100.0, "percentile must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
