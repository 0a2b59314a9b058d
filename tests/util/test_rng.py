"""Tests for deterministic seed derivation."""

import numpy as np

from repro.util.rng import SeedSequenceFactory, derive_seed, make_generator


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "network") == derive_seed(42, "network")

    def test_label_sensitivity(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_in_63_bits(self):
        for label in ("x", "y", "z"):
            assert 0 <= derive_seed(123456789, label) < 2**63

    def test_no_collision_over_many_labels(self):
        seeds = {derive_seed(7, f"label-{i}") for i in range(5000)}
        assert len(seeds) == 5000


class TestGenerators:
    def test_make_generator_reproducible(self):
        a = make_generator(5, "x").random(10)
        b = make_generator(5, "x").random(10)
        assert np.allclose(a, b)

    def test_different_labels_give_different_streams(self):
        a = make_generator(5, "x").random(10)
        b = make_generator(5, "y").random(10)
        assert not np.allclose(a, b)


class TestSeedSequenceFactory:
    def test_same_label_same_stream(self):
        factory = SeedSequenceFactory(9)
        assert np.allclose(
            factory.generator("net").random(5), factory.generator("net").random(5)
        )

    def test_indices_create_distinct_streams(self):
        factory = SeedSequenceFactory(9)
        a = factory.generator("node", 0).random(5)
        b = factory.generator("node", 1).random(5)
        assert not np.allclose(a, b)
