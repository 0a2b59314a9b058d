"""Tests for the vectorised entropy sampler (Figure 13)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.entropy_analysis import achievable_max_bias, collusion_entropy
from repro.core.audit import shannon_entropy
from repro.mc.entropy import (
    biased_fanout_entropies,
    row_entropies,
    sample_fanin_entropies,
    sample_fanout_entropies,
    sampler_history_entropies,
)
from repro.membership.full import FullMembership
from repro.membership.rps import GossipPeerSampling


class TestRowEntropies:
    def test_known_values(self):
        out = row_entropies(np.array([[1, 1, 2, 2], [5, 5, 5, 5], [1, 2, 3, 4]]))
        assert out == pytest.approx([1.0, 0.0, 2.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            row_entropies(np.empty((0, 0)))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(0, 20), min_size=3, max_size=12),
            min_size=1,
            max_size=8,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    def test_matches_multiset_reference(self, rows):
        matrix = np.array(rows)
        fast = row_entropies(matrix)
        slow = [shannon_entropy(Counter(row)) for row in rows]
        assert fast == pytest.approx(slow, abs=1e-9)

    def test_rows_are_independent(self, rng):
        # Duplicated values at the row boundary must not merge runs.
        matrix = np.array([[7, 7, 7], [7, 1, 2]])
        out = row_entropies(matrix)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(math.log2(3), abs=1e-9)


class TestFanoutSampling:
    def test_paper_range(self, rng):
        # Figure 13a: 600-pick histories at n=10,000 land in ~[9.11, 9.21].
        entropies = sample_fanout_entropies(rng, 10_000, 600, n_samples=2_000)
        assert entropies.min() > 9.05
        assert entropies.max() <= math.log2(600) + 1e-9
        assert entropies.mean() == pytest.approx(9.16, abs=0.03)

    def test_none_below_gamma(self, rng):
        entropies = sample_fanout_entropies(rng, 10_000, 600, n_samples=5_000)
        assert float(np.mean(entropies < 8.95)) == 0.0

    def test_small_system_duplicates_lower_entropy(self, rng):
        # With n ≈ history size, repeats are forced.
        entropies = sample_fanout_entropies(rng, 100, 600, n_samples=50)
        assert entropies.max() < math.log2(100) + 1e-9


class TestFaninSampling:
    def test_sizes_average_history_picks(self, rng):
        entropies, sizes = sample_fanin_entropies(rng, 2_000, 120)
        assert sizes.mean() == pytest.approx(120, rel=0.02)
        assert len(entropies) == len(sizes)

    def test_fanin_range_wider_than_fanout(self, rng):
        fanout = sample_fanout_entropies(rng, 2_000, 120, n_samples=2_000)
        fanin, _sizes = sample_fanin_entropies(rng, 2_000, 120)
        assert fanin.max() > fanout.max()  # sizes exceed n_h f sometimes
        assert fanin.std() > fanout.std()


class TestBiasedSampling:
    def test_unbiased_matches_honest(self, rng):
        honest = sample_fanout_entropies(rng, 10_000, 600, n_samples=500)
        biased = biased_fanout_entropies(rng, 10_000, 600, 500, m_colluders=25, bias=0.0)
        assert biased.mean() == pytest.approx(honest.mean(), abs=0.05)

    def test_bias_lowers_entropy(self, rng):
        mild = biased_fanout_entropies(rng, 10_000, 600, 300, 25, bias=0.1)
        heavy = biased_fanout_entropies(rng, 10_000, 600, 300, 25, bias=0.6)
        assert heavy.mean() < mild.mean()

    def test_eq7_upper_bounds_achievable_entropy(self, rng):
        # Eq. (7) idealises the honest picks as evenly filling all
        # n_h f - m' bins (fractional occupancy), so it upper-bounds what
        # even the smartest (round-robin) coalition achieves; the gap is
        # small (< 0.35 bits at the paper's scale).
        for bias in (0.2, 0.4):
            planned = biased_fanout_entropies(
                rng, 10_000, 600, 400, 25, bias=bias, planned=True
            )
            model = collusion_entropy(bias, 25, 600)
            assert planned.mean() <= model + 1e-6
            assert planned.mean() >= model - 0.5

    def test_planned_beats_iid_adversary(self, rng):
        # Round-robin within the coalition strictly improves entropy over
        # i.i.d. picking — the adversary model Eq. (7) assumes.
        iid = biased_fanout_entropies(rng, 10_000, 600, 400, 25, bias=0.4)
        planned = biased_fanout_entropies(
            rng, 10_000, 600, 400, 25, bias=0.4, planned=True
        )
        assert planned.mean() > iid.mean()

    def test_ceiling_bias_detected_above_threshold(self, rng):
        # Just above the paper's p*_m = 0.21 ceiling, histories start
        # dipping below γ = 8.95.
        above = biased_fanout_entropies(rng, 10_000, 600, 500, 25, bias=0.30)
        assert float(np.mean(above < 8.95)) > 0.9

    def test_audit_separates_around_the_achievable_ceiling(self, rng):
        # Eq. 7's integer-feasible ceiling at the paper's audit (γ = 8.95,
        # m' = 25, 600 picks), against the smartest coalition: a bias just
        # below it is almost never caught, one just above almost always.
        ceiling = achievable_max_bias(8.95, 25, 600)
        below = biased_fanout_entropies(
            rng, 10_000, 600, 200, 25, bias=ceiling - 0.04, planned=True
        )
        above = biased_fanout_entropies(
            rng, 10_000, 600, 200, 25, bias=ceiling + 0.08, planned=True
        )
        assert float(np.mean(below < 8.95)) < 0.05
        assert float(np.mean(above < 8.95)) > 0.95


class TestSamplerDriven:
    def test_full_membership_histories_near_uniform(self, rng):
        sampler = FullMembership(rng, range(500))
        entropies = sampler_history_entropies(sampler, range(60), periods=25, fanout=6)
        assert entropies.min() > 0.9 * math.log2(25 * 6)

    def test_rps_histories_random_but_less_uniform(self, rng):
        # A gossip peer-sampling service in place of full membership keeps
        # histories random enough to audit but less uniform: the headroom
        # the audit threshold γ must leave for the sampler's bias (§5.3).
        n, periods, fanout, audited = 600, 40, 6, range(80)
        full = sampler_history_entropies(
            FullMembership(rng, range(n)), audited, periods, fanout
        )
        rps = GossipPeerSampling(rng, range(n), view_size=18)
        rps.step(rounds=20)
        histories = {node: [] for node in audited}
        for _period in range(periods):
            rps.step()  # the views shuffle between periods, as when deployed
            for node in audited:
                histories[node].extend(rps.sample(node, fanout))
        width = min(len(h) for h in histories.values())
        entropies = row_entropies(np.array([h[:width] for h in histories.values()]))
        assert entropies.min() > 0.8 * math.log2(periods * fanout)
        assert entropies.mean() <= full.mean()
