"""Tests for latency, loss and bandwidth models."""

import math

import numpy as np
import pytest

from repro.sim.bandwidth import UploadLink
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.loss import BernoulliLoss, NoLoss, PerNodeLoss


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.05)
        assert model.sample(0, 1) == 0.05

    def test_uniform_within_bounds(self, rng):
        model = UniformLatency(rng, 0.02, 0.12)
        samples = [model.sample(0, 1) for _ in range(500)]
        assert all(0.02 <= s <= 0.12 for s in samples)

    def test_uniform_rejects_inverted_bounds(self, rng):
        with pytest.raises(ValueError):
            UniformLatency(rng, 0.2, 0.1)


class TestLossModels:
    def test_no_loss(self):
        assert not NoLoss().is_lost(0, 1)

    def test_bernoulli_extremes(self, rng):
        assert not BernoulliLoss(rng, 0.0).is_lost(0, 1)
        assert BernoulliLoss(rng, 1.0).is_lost(0, 1)

    def test_bernoulli_rate(self, rng):
        model = BernoulliLoss(rng, 0.2)
        losses = sum(model.is_lost(0, 1) for _ in range(20000))
        assert losses / 20000 == pytest.approx(0.2, abs=0.02)

    def test_bernoulli_rejects_bad_probability(self, rng):
        with pytest.raises(ValueError):
            BernoulliLoss(rng, 1.5)

    def test_per_node_combination(self, rng):
        model = PerNodeLoss(rng, base=0.1, node_loss={5: 0.2})
        assert model.loss_probability(0, 1) == pytest.approx(0.1)
        assert model.loss_probability(0, 5) == pytest.approx(1 - 0.9 * 0.8)
        assert model.loss_probability(5, 5) == pytest.approx(1 - 0.9 * 0.8 * 0.8)

    def test_per_node_observed_rate(self, rng):
        model = PerNodeLoss(rng, base=0.0, node_loss={1: 0.3})
        losses = sum(model.is_lost(0, 1) for _ in range(20000))
        assert losses / 20000 == pytest.approx(0.3, abs=0.02)


class TestUploadLink:
    def test_infinite_rate_no_delay(self):
        link = UploadLink()
        assert link.transmit(now=1.0, size_bytes=10_000) == 1.0

    def test_serialisation_delay(self):
        link = UploadLink(1000.0)
        assert link.transmit(now=0.0, size_bytes=500) == pytest.approx(0.5)

    def test_queueing(self):
        link = UploadLink(1000.0)
        link.transmit(now=0.0, size_bytes=1000)  # busy until 1.0
        assert link.transmit(now=0.5, size_bytes=500) == pytest.approx(1.5)

    def test_idle_gap_resets_start(self):
        link = UploadLink(1000.0)
        link.transmit(now=0.0, size_bytes=100)
        assert link.transmit(now=5.0, size_bytes=100) == pytest.approx(5.1)

    def test_bytes_accounted(self):
        link = UploadLink(1000.0)
        link.transmit(0.0, 300)
        link.transmit(0.0, 200)
        assert link.bytes_sent == 500

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            UploadLink(1000.0).transmit(0.0, -1)


class TestBatchedSamplingEquivalence:
    """The block-buffered samplers must reproduce the exact scalar draw
    sequence — seeded experiments depend on it bit-for-bit."""

    def test_uniform_matches_scalar_stream(self):
        model = UniformLatency(np.random.default_rng(7), 0.02, 0.12)
        reference = np.random.default_rng(7)
        for _ in range(2500):  # spans multiple refill blocks
            assert model.sample(0, 1) == float(reference.uniform(0.02, 0.12))

    def test_bernoulli_matches_scalar_stream(self):
        model = BernoulliLoss(np.random.default_rng(11), 0.3)
        reference = np.random.default_rng(11)
        for _ in range(2500):
            assert model.is_lost(0, 1) == (float(reference.random()) < 0.3)

    def test_bernoulli_zero_probability_consumes_no_draws(self):
        rng = np.random.default_rng(13)
        model = BernoulliLoss(rng, 0.0)
        for _ in range(100):
            assert not model.is_lost(0, 1)
        # the generator was never touched: it still matches a fresh one
        assert float(rng.random()) == float(np.random.default_rng(13).random())

    def test_per_node_matches_scalar_stream(self):
        model = PerNodeLoss(np.random.default_rng(17), base=0.1, node_loss={5: 0.2})
        reference = np.random.default_rng(17)
        for dst in [1, 5] * 1250:
            p = model.loss_probability(0, dst)
            assert model.is_lost(0, dst) == (float(reference.random()) < p)

    def test_per_node_rate_changes_take_effect_immediately(self):
        model = PerNodeLoss(np.random.default_rng(19), base=0.0)
        assert not model.is_lost(0, 1)  # p == 0: no draw
        model.set_node_loss(1, 1.0)
        assert model.is_lost(0, 1)
        model.node_loss[1] = 0.0  # direct mutation is supported too
        assert not model.is_lost(0, 1)
