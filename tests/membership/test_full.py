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

    def test_negative_count_rejected(self):
        fm = FullMembership(np.random.default_rng(4), range(5))
        with pytest.raises(ValueError, match="count must be >= 0"):
            fm.sample(caller=0, count=-1)
        assert fm._rng.random() == np.random.default_rng(4).random()

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


def swap_and_restore_sample(fm, rng, caller, count):
    """The sampler the virtual Fisher–Yates replaced, verbatim but for
    working on a copy of the array: swap in place, undo the swaps."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    nodes = list(fm._nodes)
    population = len(nodes) - (1 if fm.contains(caller) else 0)
    take = min(count, population)
    if take <= 0:
        return []
    picked, swapped = [], []
    limit = len(nodes)
    while len(picked) < take and limit > 0:
        j = int(rng.integers(0, limit))
        candidate = nodes[j]
        limit -= 1
        nodes[j], nodes[limit] = nodes[limit], nodes[j]
        swapped.append((j, limit))
        if candidate != caller:
            picked.append(candidate)
    for j, k in reversed(swapped):
        nodes[j], nodes[k] = nodes[k], nodes[j]
    assert nodes == fm._nodes
    return picked


IDS = st.integers(0, 40)
#: members and non-members alike: the source id, an id past the table.
CALLERS = st.one_of(IDS, st.sampled_from([-1, 10**6]))
SAMPLER_STEPS = st.one_of(
    st.tuples(st.just("add"), IDS),
    st.tuples(st.just("remove"), IDS),
    st.tuples(st.just("sample"), CALLERS, st.integers(0, 8)),
    # count at the population and past it
    st.tuples(st.just("sample-all"), CALLERS, st.integers(0, 3)),
)


class TestVirtualFisherYates:
    """The sampler keeps its swaps off the shared array, and picks what
    swapping in place and restoring picked, draw for draw."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        st.sets(IDS, max_size=25),
        st.integers(0, 2**32 - 1),
        st.lists(SAMPLER_STEPS, min_size=1, max_size=40),
    )
    def test_picks_what_swap_and_restore_picked(self, ids, seed, steps):
        fm = FullMembership(np.random.default_rng(seed), sorted(ids))
        reference_rng = np.random.default_rng(seed)
        for step in steps:
            if step[0] == "add":
                fm.add(step[1])
            elif step[0] == "remove":
                fm.remove(step[1])
            else:
                _kind, caller, count = step
                if step[0] == "sample-all":
                    count += len(fm)
                before = list(fm._nodes)
                expected = swap_and_restore_sample(fm, reference_rng, caller, count)
                assert fm.sample(caller, count) == expected
                assert fm._nodes == before
        # Both generators drew the same stream, and no more.
        assert fm._rng.random() == reference_rng.random()

    @pytest.mark.parametrize("caller", [10**6, 6, "x", None, 1.5])
    def test_a_caller_past_the_table_or_not_an_int_is_absent(self, caller):
        fm = FullMembership(np.random.default_rng(2), range(6))
        assert sorted(fm.sample(caller, count=10)) == [0, 1, 2, 3, 4, 5]
        assert len(fm.sample(caller, count=4)) == 4
