"""Unit tests for the validation helpers."""

import pytest

from repro.util.validation import (
    NODE_ID_LIMIT,
    require,
    require_node_id,
    require_non_negative,
    require_positive,
    require_probability,
)


class TestRequire:
    def test_passes_silently_when_true(self):
        require(True, "never shown")

    def test_raises_value_error_when_false(self):
        with pytest.raises(ValueError, match="boom"):
            require(False, "boom")

    def test_formats_args_lazily(self):
        with pytest.raises(ValueError, match="bad fanout -3"):
            require(False, "bad fanout %d", -3)

    def test_message_without_args_may_contain_percent(self):
        with pytest.raises(ValueError, match="100% wrong"):
            require(False, "100% wrong")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.001, 1.001, 2.0, -5])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="p must be a probability"):
            require_probability(value, "p")

    def test_returns_float(self):
        assert isinstance(require_probability(1, "p"), float)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(0.1, "x") == 0.1

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_rejects_non_positive(self, value):
        with pytest.raises(ValueError):
            require_positive(value, "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "x") == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-0.01, "x")


class TestRequireNodeId:
    def test_returns_plain_int(self):
        import numpy as np

        for value in (0, 7, np.int64(7), np.uint8(7), NODE_ID_LIMIT - 1):
            assert type(require_node_id(value)) is int
            assert require_node_id(value) == value

    @pytest.mark.parametrize("value", ["x", "3", 1.5, 2.0, None, (1,)])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ValueError, match="node id must be an integer"):
            require_node_id(value)

    @pytest.mark.parametrize("value", [-1, -7, NODE_ID_LIMIT, 2**40])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match="out of range"):
            require_node_id(value)

    def test_source_id_only_where_allowed(self):
        assert require_node_id(-1, allow_source=True) == -1
        with pytest.raises(ValueError, match="out of range"):
            require_node_id(-2, allow_source=True)
