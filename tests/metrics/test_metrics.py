"""Tests for the metrics layer (health, scores, overhead)."""

import math

import numpy as np
import pytest

from repro.gossip.chunks import ChunkStore
from repro.metrics.health import HealthReport, delivery_ratio, health_curve, node_required_lag
from repro.metrics.overhead import OverheadReport, bandwidth_overhead, message_counts_per_node_period
from repro.metrics.scores import (
    DetectionReport,
    detection_report,
    score_distributions,
)
from repro.sim.trace import MessageTrace


class FakeNode:
    def __init__(self, node_id, received):
        self.node_id = node_id
        self.store = ChunkStore()
        for chunk_id, at in received.items():
            self.store.add(chunk_id, 1, received_at=at)


class FakeChunk:
    def __init__(self, chunk_id, created_at):
        self.chunk_id = chunk_id
        self.created_at = created_at


class FakeSource:
    def __init__(self, n_chunks, interval=1.0):
        self.chunks = [FakeChunk(i, i * interval) for i in range(n_chunks)]


class TestNodeRequiredLag:
    def test_all_delivered_quickly(self):
        source = FakeSource(10)
        node = FakeNode(0, {i: i * 1.0 + 0.5 for i in range(10)})
        assert node_required_lag(node, source, coverage=1.0) == pytest.approx(0.5)

    def test_missing_chunks_make_lag_infinite(self):
        source = FakeSource(10)
        node = FakeNode(0, {i: i * 1.0 + 0.5 for i in range(5)})  # half missing
        assert node_required_lag(node, source, coverage=0.9) == math.inf

    def test_coverage_tolerates_missing_tail(self):
        source = FakeSource(100)
        received = {i: i * 1.0 + 0.2 for i in range(99)}  # one missing
        node = FakeNode(0, received)
        assert node_required_lag(node, source, coverage=0.95) == pytest.approx(0.2)

    def test_window_filter(self):
        source = FakeSource(10)
        node = FakeNode(0, {5: 5.0 + 2.0})
        lag = node_required_lag(node, source, coverage=1.0, window=(5.0, 6.0))
        assert lag == pytest.approx(2.0)

    def test_quantile_selection(self):
        source = FakeSource(10)
        received = {i: i * 1.0 + (0.1 if i < 9 else 9.0) for i in range(10)}
        node = FakeNode(0, received)
        assert node_required_lag(node, source, coverage=0.9) == pytest.approx(0.1)
        assert node_required_lag(node, source, coverage=1.0) == pytest.approx(9.0)


class TestHealthCurve:
    def test_fraction_monotone_in_lag(self):
        source = FakeSource(20)
        nodes = [
            FakeNode(i, {c: c * 1.0 + 0.2 * (i + 1) for c in range(20)})
            for i in range(5)
        ]
        report = health_curve(nodes, source, lags=[0.0, 0.5, 1.5], coverage=1.0)
        assert list(report.fractions) == sorted(report.fractions)
        assert report.fractions[-1] == 1.0
        nobody = health_curve([], source, lags=[0.0, 0.5], coverage=1.0)
        assert list(nobody.fractions) == [0.0, 0.0]

    def test_delivery_ratio(self):
        full = FakeNode(0, {c: 1.0 for c in range(10)})
        half = FakeNode(1, {c: 1.0 for c in range(5)})
        assert delivery_ratio([full, half], range(10)) == pytest.approx(0.75)
        assert delivery_ratio([], range(10)) == delivery_ratio([full], range(0)) == 0.0


class TestDetectionReport:
    def test_split_and_fractions(self):
        scores = {0: 1.0, 1: -20.0, 2: 0.5, 3: -15.0, 4: -30.0}
        report = detection_report(scores, freerider_ids={3, 4}, eta=-9.75)
        assert report.detection == 1.0
        assert report.false_positives == pytest.approx(1 / 3)
        assert len(report.honest) == 3
        assert len(report.freeriders) == 2

    def test_empty_populations(self):
        report = detection_report({}, set(), -9.75)
        assert report.detection == 0.0
        assert report.false_positives == 0.0

    def test_summary_format(self):
        report = detection_report({0: 0.0, 1: -20.0}, {1}, -9.75)
        text = report.summary()
        assert "detection=100%" in text
        assert "false positives=0%" in text


class TestOverheadReport:
    def _trace(self):
        trace = MessageTrace()

        class Data:
            CATEGORY = "data"

        class Verif:
            CATEGORY = "verification"

        class Rep:
            CATEGORY = "reputation"

        for _ in range(10):
            trace.record_sent(0, Data(), 1000)
        for _ in range(4):
            trace.record_sent(0, Verif(), 50)
        for _ in range(2):
            trace.record_sent(1, Rep(), 30)
        return trace

    def test_percentages(self):
        report = bandwidth_overhead(self._trace(), duration=10.0, n_nodes=2)
        assert report.data_bytes == 10_000
        assert report.overhead_bytes == 260
        assert report.overhead_percent == pytest.approx(2.6)

    def test_zero_data_guard(self):
        report = OverheadReport(0, 10, 10, 1.0, 1)
        assert report.overhead_ratio == 0.0

    def test_message_counts_per_node_period(self):
        trace = self._trace()
        counts = message_counts_per_node_period(
            trace, duration=10.0, n_nodes=2, gossip_period=0.5
        )
        assert counts["Data"] == pytest.approx(10 / 2 / 20)

    def test_validation(self):
        with pytest.raises(ValueError):
            bandwidth_overhead(MessageTrace(), duration=0.0, n_nodes=1)
