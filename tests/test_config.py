"""Validation and invariants of the parameter dataclasses (Table 4)."""

import pytest
from hypothesis import given, strategies as st

from repro.config import (
    FreeriderDegree,
    GossipParams,
    HONEST_DEGREE,
    LiftingParams,
)


class TestGossipParams:
    def test_defaults_are_planetlab_like(self):
        params = GossipParams()
        assert params.n == 300
        assert params.fanout == 7
        assert params.gossip_period == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1),
            dict(fanout=0),
            dict(fanout=300),  # >= n
            dict(gossip_period=0.0),
            dict(chunk_size=0),
            dict(request_size=0),
            dict(source_fanout=0),
            dict(stream_rate_kbps=-1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GossipParams(**kwargs)


class TestLiftingParams:
    def test_defaults_match_paper(self):
        params = LiftingParams()
        assert params.managers == 25
        assert params.eta == -9.75
        assert params.gamma == 8.95
        assert params.history_periods == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p_dcc=1.5),
            dict(managers=0),
            dict(history_periods=0),
            dict(assumed_loss_rate=-0.1),
            dict(ack_timeout=0.0),
            dict(confirm_timeout=0.2),  # not above the witness answer delay
            dict(expel_quorum=1.5),
            dict(gamma=-1.0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            LiftingParams(**kwargs)

    def test_p_reception(self):
        assert LiftingParams(assumed_loss_rate=0.07).p_reception == pytest.approx(0.93)


class TestFreeriderDegree:
    def test_honest_constant(self):
        assert HONEST_DEGREE.bandwidth_gain == 0.0
        assert HONEST_DEGREE.effective_fanout(7) == 7

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_gain_in_unit_interval(self, d1, d2, d3):
        degree = FreeriderDegree(d1, d2, d3)
        assert 0.0 <= degree.bandwidth_gain <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=40))
    def test_effective_fanout_bounds(self, d1, fanout):
        degree = FreeriderDegree(d1, 0, 0)
        effective = degree.effective_fanout(fanout)
        assert 0 <= effective <= fanout

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_uniform_constructor(self, delta):
        degree = FreeriderDegree.uniform(delta)
        assert degree.delta1 == degree.delta2 == degree.delta3 == delta

    def test_paper_gain_examples(self):
        # §6.3.2: serving colluders 21 % of the time decreases the
        # contribution by a further 21 % — gains compose multiplicatively.
        assert FreeriderDegree(0.21, 0, 0).bandwidth_gain == pytest.approx(0.21)
        # §7.1's PlanetLab freeriders save about 26 %.
        planetlab = FreeriderDegree(1 / 7, 0.1, 0.1)
        assert planetlab.bandwidth_gain == pytest.approx(
            1 - (6 / 7) * 0.9 * 0.9, abs=1e-9
        )

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FreeriderDegree(1.5, 0, 0)

