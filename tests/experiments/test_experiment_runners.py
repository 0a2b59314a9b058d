"""Scaled-down runs of every figure/table experiment.

These check that each runner produces series with the paper's *shape*;
the full-scale numbers live in the benchmark harness.
"""

import math

import numpy as np
import pytest

from repro import run_scenario
from repro.config import FreeriderDegree
from repro.experiments.calibration import calibrate


class TestFig10:
    def test_mean_centered_and_sigma(self):
        result = run_scenario("fig10", n=20_000, seed=5).artifact
        assert result.compensation == pytest.approx(72.95, abs=0.01)
        assert abs(result.mean) < 0.5
        assert 15.0 < result.stddev < 28.0

    def test_pdf_sums_to_one(self):
        result = run_scenario("fig10", n=5_000, seed=5).artifact
        _centers, fractions = result.pdf()
        assert fractions.sum() == pytest.approx(1.0, abs=0.02)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario("fig11", n=4_000, freeriders=400, rounds=50, seed=5).artifact

    def test_two_disjoint_modes(self, result):
        # "the probability density function is split into two disjoint
        # modes separated by a gap" (§6.3.1).
        assert result.gap > 0

    def test_detection_above_99_at_delta_01(self, result):
        assert result.detection > 0.99

    def test_false_positives_below_1_percent(self, result):
        # η = -9.75 was chosen for β < 1 %.
        assert result.false_positives < 0.01

    def test_cdf_series_shape(self, result):
        hx, hf, fx, ff = result.cdf_series()
        assert hf[-1] == pytest.approx(1.0)
        assert ff[-1] == pytest.approx(1.0)
        assert np.median(fx) < np.median(hx)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(
            "fig12", deltas=[0.0, 0.02, 0.035, 0.05, 0.1, 0.15], rounds=50,
            samples_per_point=1_500, seed=5,
        ).artifact

    def test_detection_monotone_in_delta(self, result):
        detections = list(result.detection)
        assert detections == sorted(detections)

    def test_saturates_past_delta_01(self, result):
        # "Beyond 10% of freeriding, a node is detected over 99% of the
        # time."
        assert result.detection_at(0.1) > 0.99
        assert result.detection_at(0.15) > 0.99

    def test_gain_formula(self, result):
        gain = float(np.interp(0.035, result.deltas, result.gain))
        assert gain == pytest.approx(1 - (1 - 0.035) ** 3, abs=0.01)

    def test_wise_region_detection_moderate(self, result):
        # Around the 10 %-gain point detection is neither ~0 nor ~1 —
        # the paper puts it near 50 %.
        mid = result.detection_at(0.035)
        assert 0.1 < mid < 0.95


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        # γ = 8.95 is calibrated for the paper's n = 10,000 (smaller
        # systems force more duplicates into a 600-pick history and sit
        # lower), so this test runs at full scale.
        return run_scenario("fig13", n=10_000, seed=5).artifact

    def test_fanout_below_max(self, result):
        lo, hi = result.fanout_range
        assert hi <= result.max_entropy + 1e-9
        assert lo > result.max_entropy - 0.3

    def test_fanin_wider_than_fanout(self, result):
        fo_lo, fo_hi = result.fanout_range
        fi_lo, fi_hi = result.fanin_range
        assert fi_hi > fo_hi  # fanin can exceed log2(n_h f)

    def test_false_expulsions_negligible_at_gamma(self, result):
        # "the probability of wrongfully expelling the inspected node
        # during local auditing is negligible when γ is set to 8.95".
        assert result.fanout_false_expulsions == 0.0
        assert result.fanin_false_expulsions <= 0.002

    def test_fanout_range_matches_paper(self, result):
        # Paper: observed fanout entropy in [9.11, 9.21].
        lo, hi = result.fanout_range
        assert lo == pytest.approx(9.11, abs=0.03)
        assert hi == pytest.approx(9.21, abs=0.03)

    def test_max_entropy_is_papers_9_23(self, result):
        assert result.max_entropy == pytest.approx(9.23, abs=0.005)


class TestCalibration:
    def test_calibration_produces_positive_compensation(self, small_gossip, small_lifting):
        result = calibrate(
            small_gossip, small_lifting, seed=3, duration=6.0, n=24, loss_rate=0.05
        )
        assert result.compensation > 0
        assert result.score_stddev >= 0

    def test_eta_rule_negative(self, small_gossip, small_lifting):
        result = calibrate(
            small_gossip, small_lifting, seed=3, duration=6.0, n=24, loss_rate=0.05
        )
        eta = result.eta_for_false_positives(0.01)
        assert eta < 0
        # Tighter β target → more negative threshold.
        assert result.eta_for_false_positives(0.001) < eta
