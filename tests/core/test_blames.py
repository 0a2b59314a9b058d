"""Table 1 conformance: blame values per attack."""

import pytest

from repro.core.blames import (
    fanout_decrease_blame,
    no_ack_blame,
    partial_serve_blame,
    unacknowledged_history_blame,
    witness_contradiction_blame,
)


class TestFanoutDecrease:
    def test_paper_example(self):
        # f = 7, f̂ = 6 (the PlanetLab freeriders): blame 1 per verifier.
        assert fanout_decrease_blame(7, 6) == 1.0
        assert fanout_decrease_blame(7, 4) == 3.0

    def test_zero_when_compliant(self):
        assert fanout_decrease_blame(7, 7) == 0.0

    def test_never_negative(self):
        assert fanout_decrease_blame(7, 9) == 0.0

    def test_full_when_no_partners(self):
        assert fanout_decrease_blame(7, 0) == 7.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fanout_decrease_blame(0, 0)
        with pytest.raises(ValueError):
            fanout_decrease_blame(7, -1)


class TestNoAck:
    def test_equals_fanout(self):
        assert no_ack_blame(12) == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            no_ack_blame(0)


class TestPartialServe:
    def test_table1_formula(self):
        # f·(|R|-|S|)/|R|
        assert partial_serve_blame(7, 4, 1) == pytest.approx(7 * 3 / 4)
        assert partial_serve_blame(7, 4, 3) == pytest.approx(1.75)

    def test_full_drop_equals_f(self):
        # "If the node did not serve any of the requested chunks, it is
        # blamed by f which corresponds to the same blame as if the node
        # did not propose those chunks."
        assert partial_serve_blame(7, 4, 0) == 7.0
        assert partial_serve_blame(7, 1, 0) == 7.0

    def test_full_serve_zero(self):
        assert partial_serve_blame(7, 4, 4) == 0.0

    def test_consistency_across_request_sizes(self):
        # Dropping everything always costs f, regardless of |R|.
        for request_size in (1, 2, 5, 10):
            assert partial_serve_blame(9, request_size, 0) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            partial_serve_blame(7, 0, 0)
        with pytest.raises(ValueError):
            partial_serve_blame(7, 4, 5)


class TestOtherBlames:
    def test_witness_contradiction_is_unit(self):
        # "blames p1 by the number of contradictory testimonies" — 1 each.
        assert witness_contradiction_blame() == 1.0

    def test_unacknowledged_history(self):
        # "blamed by 1 for each proposal in its history that is not
        # acknowledged by the alleged receiver."
        assert unacknowledged_history_blame(5) == 5.0
        assert unacknowledged_history_blame(0) == 0.0
        with pytest.raises(ValueError):
            unacknowledged_history_blame(-1)
