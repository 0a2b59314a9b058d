"""Fixed-bucket log-linear latency histogram (stdlib only).

The load generator records one latency sample per frame per stage at
rates of tens of thousands per second, so the recorder must be O(1)
with no allocation, and per-phase histograms must *merge* exactly so
that worker shards and per-phase shards aggregate into one distribution
without resampling.  Sorting the raw samples (the textbook percentile)
would cost O(n log n) memory and time at exactly the moment the system
under test is saturated — the histogram trades a bounded, known
quantisation error for a fixed footprint of a few KiB.

Bucket layout (HdrHistogram-style log-linear):

* bucket 0 is the underflow bucket ``[0, min_value]``;
* each power-of-two *decade* above ``min_value`` is split into
  ``subbuckets`` equal-width linear buckets, so the relative
  quantisation error is bounded by ``1/subbuckets`` everywhere;
* one terminal overflow bucket catches ``>= max_value``.

``percentile`` returns the **upper edge** of the bucket holding the
requested rank (clamped to the largest recorded value), so the reported
value is always ``>=`` the exact percentile and within one bucket width
of it — the property pinned by ``tests/loadgen/test_histogram.py``
against a sorted-array reference.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.util.validation import require

__all__ = ["LatencyHistogram"]


class LatencyHistogram:
    """Mergeable log-linear histogram over ``[0, max_value)`` seconds.

    ``min_value`` is the resolution floor (everything at or below it
    lands in the underflow bucket); ``subbuckets`` linear buckets per
    power-of-two decade bound the relative error by ``1/subbuckets``.
    Two histograms merge exactly iff they share the same geometry.
    """

    __slots__ = (
        "min_value",
        "max_value",
        "subbuckets",
        "decades",
        "counts",
        "count",
        "total",
        "min_recorded",
        "max_recorded",
    )

    def __init__(
        self,
        min_value: float = 1e-6,
        max_value: float = 60.0,
        subbuckets: int = 32,
    ) -> None:
        require(min_value > 0.0, "min_value must be > 0")
        require(max_value > min_value, "max_value must exceed min_value")
        require(subbuckets >= 1, "subbuckets must be >= 1")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.subbuckets = int(subbuckets)
        self.decades = max(1, math.ceil(math.log2(self.max_value / self.min_value)))
        # [underflow] + decades*subbuckets + [overflow]
        self.counts = [0] * (2 + self.decades * self.subbuckets)
        self.count = 0
        self.total = 0.0
        self.min_recorded = math.inf
        self.max_recorded = 0.0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def bucket_index(self, value: float) -> int:
        """The bucket a sample lands in (negatives clamp to underflow)."""
        if value <= self.min_value:
            return 0
        if value >= self.max_value:
            return len(self.counts) - 1
        mantissa, exponent = math.frexp(value / self.min_value)
        # value/min = mantissa * 2**exponent with mantissa in [0.5, 1),
        # so the decade index is exponent-1 and the linear sub-bucket is
        # the mantissa's position within [0.5, 1).
        sub = int((2.0 * mantissa - 1.0) * self.subbuckets)
        if sub >= self.subbuckets:  # mantissa rounding at the decade edge
            sub = self.subbuckets - 1
        index = 1 + (exponent - 1) * self.subbuckets + sub
        last = len(self.counts) - 1
        return index if index < last else last

    def record(self, value: float) -> None:
        """Add one sample; O(1), no allocation."""
        self.counts[self.bucket_index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min_recorded:
            self.min_recorded = value
        if value > self.max_recorded:
            self.max_recorded = value

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    # ------------------------------------------------------------------
    # bucket geometry
    # ------------------------------------------------------------------
    def bucket_bounds(self, index: int) -> tuple:
        """``(lower, upper)`` of one bucket (overflow upper = inf)."""
        require(0 <= index < len(self.counts), "bucket index out of range")
        if index == 0:
            return (0.0, self.min_value)
        if index == len(self.counts) - 1:
            return (self.max_value, math.inf)
        decade, sub = divmod(index - 1, self.subbuckets)
        base = self.min_value * (2.0 ** decade)
        lower = base * (1.0 + sub / self.subbuckets)
        upper = base * (1.0 + (sub + 1) / self.subbuckets)
        return (lower, upper)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def percentile(self, q: float) -> float:
        """The q-th percentile (upper bucket edge, within one width).

        Returns ``nan`` on an empty histogram.  The overflow bucket
        reports the largest recorded value (the histogram cannot bound
        it tighter than "at least ``max_value``").
        """
        require(0.0 <= q <= 100.0, "percentile must be in [0, 100]")
        if self.count == 0:
            return math.nan
        rank = max(1, math.ceil(q / 100.0 * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                upper = self.bucket_bounds(index)[1]
                return min(upper, self.max_recorded)
        return self.max_recorded  # unreachable: counts sum to count

    def percentiles(
        self, qs: Sequence[float] = (50.0, 90.0, 99.0, 99.9)
    ) -> Dict[str, float]:
        """JSON-safe ``{"p50": ..., ...}`` projection of :meth:`percentile`."""
        return {f"p{q:g}": self.percentile(q) for q in qs}

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    # ------------------------------------------------------------------
    # merging & serialisation
    # ------------------------------------------------------------------
    def compatible_with(self, other: "LatencyHistogram") -> bool:
        return (
            self.min_value == other.min_value
            and self.max_value == other.max_value
            and self.subbuckets == other.subbuckets
        )

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other``'s samples into this histogram (exact)."""
        if not self.compatible_with(other):
            raise ValueError(
                "cannot merge histograms with different geometry: "
                f"({self.min_value}, {self.max_value}, {self.subbuckets}) vs "
                f"({other.min_value}, {other.max_value}, {other.subbuckets})"
            )
        counts = self.counts
        for index, bucket_count in enumerate(other.counts):
            counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min_recorded < self.min_recorded:
            self.min_recorded = other.min_recorded
        if other.max_recorded > self.max_recorded:
            self.max_recorded = other.max_recorded
        return self

    def copy(self) -> "LatencyHistogram":
        out = LatencyHistogram(self.min_value, self.max_value, self.subbuckets)
        out.merge(self)
        return out

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A fresh histogram holding the union of all inputs."""
        result = None
        for histogram in histograms:
            if result is None:
                result = histogram.copy()
            else:
                result.merge(histogram)
        if result is None:
            return cls()
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, "
            f"p50={self.percentile(50):.6f}, p99={self.percentile(99):.6f})"
        )
