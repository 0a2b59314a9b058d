"""Scaled-down runs of every figure/table experiment.

These check that each runner produces series with the paper's *shape*;
the paper's numbers at the paper's sizes are checked by
``benchmarks/scorecard.py`` (docs/SCORECARD.md).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro import run_scenario
from repro.config import FreeriderDegree, planetlab_params
from repro.experiments.calibration import calibrate
from repro.experiments.cluster import ClusterConfig, SimCluster
from repro.experiments.fig14 import fig14_metrics


class TestFig10:
    def test_mean_centered_and_sigma(self):
        metrics = run_scenario("fig10", n=20_000, seed=5).metrics
        assert metrics["compensation"] == pytest.approx(72.95, abs=0.01)
        assert abs(metrics["mean"]) < 0.5
        assert 15.0 < metrics["stddev"] < 28.0

    def test_pdf_sums_to_one(self):
        metrics = run_scenario("fig10", n=5_000, seed=5).metrics
        assert sum(metrics["pdf"]["fractions"]) == pytest.approx(1.0, abs=0.02)


class TestFig11:
    @pytest.fixture(scope="class")
    def metrics(self):
        return run_scenario("fig11", n=4_000, freeriders=400, rounds=50, seed=5).metrics

    def test_two_disjoint_modes(self, metrics):
        # "the probability density function is split into two disjoint
        # modes separated by a gap" (§6.3.1).
        assert metrics["gap"] > 0

    def test_detection_above_99_at_delta_01(self, metrics):
        assert metrics["detection"] > 0.99

    def test_false_positives_below_1_percent(self, metrics):
        # η = -9.75 was chosen for β < 1 %.
        assert metrics["false_positives"] < 0.01

    def test_cdf_series_shape(self, metrics):
        # Both populations are sampled in full, and at η the freerider CDF
        # stands far above the honest one.
        assert (metrics["honest_samples"], metrics["freerider_samples"]) == (3_600, 400)
        assert metrics["detection"] > metrics["false_positives"] + 0.9


class TestFig12:
    DELTAS = (0.0, 0.02, 0.035, 0.05, 0.1, 0.15)

    @pytest.fixture(scope="class")
    def metrics(self):
        return run_scenario(
            "fig12", deltas=self.DELTAS, rounds=50, samples_per_point=1_500, seed=5,
        ).metrics

    def test_detection_monotone_in_delta(self, metrics):
        detections = list(metrics["detection"])
        assert detections == sorted(detections)

    def test_saturates_past_delta_01(self, metrics):
        # "Beyond 10% of freeriding, a node is detected over 99% of the
        # time."
        detection = dict(zip(self.DELTAS, metrics["detection"]))
        assert detection[0.1] > 0.99
        assert detection[0.15] > 0.99

    def test_gain_formula(self, metrics):
        gain = float(np.interp(0.035, metrics["deltas"], metrics["gain"]))
        assert gain == pytest.approx(1 - (1 - 0.035) ** 3, abs=0.01)

    def test_wise_region_detection_moderate(self, metrics):
        # Around the 10 %-gain point detection is neither ~0 nor ~1 —
        # the paper puts it near 50 %.
        mid = dict(zip(self.DELTAS, metrics["detection"]))[0.035]
        assert 0.1 < mid < 0.95


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        # γ = 8.95 is calibrated for the paper's n = 10,000 (smaller
        # systems force more duplicates into a 600-pick history and sit
        # lower), so this test runs at full scale.
        return run_scenario("fig13", n=10_000, seed=5).metrics

    def test_fanout_below_max(self, result):
        lo, hi = result["fanout_range"]
        assert hi <= result["max_entropy"] + 1e-9
        assert lo > result["max_entropy"] - 0.3

    def test_fanin_wider_than_fanout(self, result):
        _fo_lo, fo_hi = result["fanout_range"]
        _fi_lo, fi_hi = result["fanin_range"]
        assert fi_hi > fo_hi  # fanin can exceed log2(n_h f)

    def test_false_expulsions_negligible_at_gamma(self, result):
        # "the probability of wrongfully expelling the inspected node
        # during local auditing is negligible when γ is set to 8.95".
        assert result["fanout_false_expulsions"] == 0.0
        assert result["fanin_false_expulsions"] <= 0.002

    def test_fanout_range_matches_paper(self, result):
        # Paper: observed fanout entropy in [9.11, 9.21].
        lo, hi = result["fanout_range"]
        assert lo == pytest.approx(9.11, abs=0.03)
        assert hi == pytest.approx(9.21, abs=0.03)

    def test_max_entropy_is_papers_9_23(self, result):
        assert result["max_entropy"] == pytest.approx(9.23, abs=0.005)


class TestFig14Metrics:
    def test_false_positive_claims_read_at_the_calibrated_threshold(self):
        # Node 0 freerides, node 1 is poorly connected; at η = -9.75 no
        # honest node is flagged, at η_cal = -3.65 nodes 1 and 2 are.
        flagged = {0: -20.0, 1: -5.0, 2: -5.0, 3: 1.0}
        clean = {0: -20.0, 1: 0.0, 2: 1.0, 3: 1.0}
        metrics = fig14_metrics(
            {(1.0, 30.0): flagged, (1.0, 35.0): clean}, {0}, {1},
            eta=-9.75, eta_calibrated=-3.65, compensation=0.0,
        )["snapshots"]
        assert metrics["p_dcc=1@30s"] == {
            "detection": 1.0,
            "false_positives": 0.0,
            "detection_calibrated": 1.0,
            "false_positives_calibrated": pytest.approx(2 / 3),
            "degraded_false_positive_share": 0.5,
            "mean_gap": 18.0,  # nodes 2 and 3 average -2; the freerider -20
        }
        # No honest node below η_cal: the share is undefined, not 0.
        assert metrics["p_dcc=1@35s"]["degraded_false_positive_share"] is None


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

    def test_compensation_cancels_the_loss_drift(self):
        # Without b̃ (§6.2) honest scores sink with the loss rate, so no
        # fixed η fits both rates; the calibrated compensation keeps the
        # honest mean near zero at each.
        gossip, lifting = planetlab_params()
        gossip = replace(gossip, n=60, fanout=5, source_fanout=5, chunk_size=2048)
        lifting = replace(lifting, managers=5, history_periods=12)

        def honest_mean(loss_rate, compensation):
            cluster = SimCluster(ClusterConfig(
                gossip=gossip, lifting=lifting, seed=9, loss_rate=loss_rate,
                compensation=compensation,
            ))
            cluster.run(until=10.0)
            return float(np.mean(list(cluster.scores().values())))

        losses = (0.02, 0.08)
        raw = [honest_mean(loss, 0.0) for loss in losses]
        compensated = [
            honest_mean(loss, calibrate(
                gossip, lifting, seed=5, duration=8.0, n=60, loss_rate=loss
            ).compensation)
            for loss in losses
        ]
        assert raw[1] < raw[0] < 0
        assert max(abs(mean) for mean in compensated) < 3.0
