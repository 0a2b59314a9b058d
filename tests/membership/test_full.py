"""Tests for the full-membership uniform sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.membership.full import FullMembership

#: Not node ids: wrong type, negative (the source's -1 included), too big.
BAD_IDS = ["x", 1.5, None, -1, -7, 2**20]


class TestSampling:
    def test_excludes_caller(self, rng):
        fm = FullMembership(rng, range(10))
        for _ in range(200):
            assert 3 not in fm.sample(caller=3, count=5)

    def test_returns_distinct(self, rng):
        fm = FullMembership(rng, range(10))
        for _ in range(100):
            partners = fm.sample(caller=0, count=6)
            assert len(set(partners)) == len(partners) == 6

    def test_caps_at_population(self, rng):
        fm = FullMembership(rng, range(5))
        assert len(fm.sample(caller=0, count=10)) == 4

    def test_zero_count(self, rng):
        fm = FullMembership(rng, range(5))
        assert fm.sample(caller=0, count=0) == []

    def test_negative_count_rejected(self, rng):
        fm = FullMembership(rng, range(5))
        with pytest.raises(ValueError):
            fm.sample(caller=0, count=-1)

    def test_sampling_does_not_perturb_directory(self, rng):
        fm = FullMembership(rng, range(10))
        before = list(fm.alive_nodes())
        fm.sample(caller=0, count=5)
        assert list(fm.alive_nodes()) == before

    def test_approximately_uniform(self, rng):
        fm = FullMembership(rng, range(20))
        counts = np.zeros(20)
        for _ in range(4000):
            for p in fm.sample(caller=0, count=3):
                counts[p] += 1
        counts = counts[1:]  # caller never picked
        expected = 4000 * 3 / 19
        assert np.all(np.abs(counts - expected) < expected * 0.25)

    def test_duplicate_ids_rejected(self, rng):
        with pytest.raises(ValueError):
            FullMembership(rng, [1, 1, 2])

    @pytest.mark.parametrize("bad_id", BAD_IDS)
    def test_invalid_ids_rejected(self, rng, bad_id):
        with pytest.raises(ValueError, match="node id"):
            FullMembership(rng, [0, 1, bad_id])

    def test_numpy_ids_are_stored_as_plain_ints(self, rng):
        fm = FullMembership(rng, np.arange(5))
        fm.add(np.int64(9))
        assert sorted(fm.alive_nodes()) == [0, 1, 2, 3, 4, 9]
        assert all(type(node) is int for node in fm.alive_nodes())
        assert fm.contains(np.int64(9)) and fm.contains(9)


class TestMembershipChanges:
    def test_remove(self, rng):
        fm = FullMembership(rng, range(6))
        fm.remove(3)
        assert not fm.contains(3)
        assert len(fm) == 5
        for _ in range(100):
            assert 3 not in fm.sample(caller=0, count=4)

    def test_remove_absent_is_noop(self, rng):
        fm = FullMembership(rng, range(3))
        fm.remove(99)
        assert len(fm) == 3

    def test_add(self, rng):
        fm = FullMembership(rng, range(3))
        fm.add(7)
        assert fm.contains(7)
        fm.add(7)  # idempotent
        assert len(fm) == 4

    @pytest.mark.parametrize("bad_id", BAD_IDS)
    def test_add_invalid_id_rejected_and_directory_untouched(self, rng, bad_id):
        fm = FullMembership(rng, range(3))
        with pytest.raises(ValueError, match="node id"):
            fm.add(bad_id)
        assert fm.alive_nodes() == (0, 1, 2) and len(fm) == 3
        assert not fm.contains(bad_id)
        fm.remove(bad_id)  # lookups of a non-id stay tolerant no-ops
        fm.add(3)
        assert sorted(fm.sample(caller=0, count=3)) == [1, 2, 3]

    def test_remove_then_add(self, rng):
        fm = FullMembership(rng, range(4))
        fm.remove(2)
        fm.add(2)
        assert fm.contains(2)
        assert sorted(fm.alive_nodes()) == [0, 1, 2, 3]

    @given(st.sets(st.integers(0, 50), min_size=2, max_size=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_directory_consistent_under_churn(self, ids, data):
        fm = FullMembership(np.random.default_rng(0), sorted(ids))
        alive = set(ids)
        operations = data.draw(
            st.lists(st.tuples(st.booleans(), st.sampled_from(sorted(ids))), max_size=20)
        )
        for add, node in operations:
            if add:
                fm.add(node)
                alive.add(node)
            else:
                fm.remove(node)
                alive.discard(node)
        assert set(fm.alive_nodes()) == alive
        assert len(fm) == len(alive)
