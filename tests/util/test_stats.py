"""Tests for the empirical-distribution helpers."""

import numpy as np
import pytest

from repro.util.stats import EmpiricalDistribution, cdf_at, histogram_density


class TestCdfAt:
    def test_counts_inclusive(self):
        assert cdf_at([1.0, 2.0, 3.0], 2.0) == pytest.approx(2 / 3)

    def test_below_all(self):
        assert cdf_at([1.0, 2.0], 0.0) == 0.0

    def test_above_all(self):
        assert cdf_at([1.0, 2.0], 5.0) == 1.0


class TestHistogramDensity:
    def test_fractions_sum_to_one(self):
        centers, fractions = histogram_density(np.arange(100.0), bins=7)
        assert fractions.sum() == pytest.approx(1.0)
        assert len(centers) == 7

    def test_respects_range(self):
        _centers, fractions = histogram_density(
            [0.5] * 10 + [99.5] * 10, bins=2, value_range=(0.0, 1.0)
        )
        # Samples outside the range are excluded from the bins.
        assert fractions.sum() == pytest.approx(0.5)


class TestEmpiricalDistribution:
    def test_basic_summaries(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0])
        d.add(4)
        assert d.mean == pytest.approx(2.5)
        assert d.samples[-1] == 4.0 and len(d) == 4

    def test_fraction_below(self):
        d = EmpiricalDistribution([1.0, 2.0, 3.0, 4.0])
        assert d.fraction_below(2.5) == pytest.approx(0.5)

    def test_empty_guards(self):
        d = EmpiricalDistribution()
        assert d.mean == 0.0
        with pytest.raises(ValueError):
            d.fraction_below(0.0)
