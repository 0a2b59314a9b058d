"""The equivalence helper itself: blind to identity, strict on values."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest


@dataclass
class _Curve:
    lags: np.ndarray
    values: np.ndarray
    label: str = "c"
    score: float = 0.5


def _result(lags_a, lags_b):
    return {"curves": [_Curve(lags_a, np.arange(3.0)), _Curve(lags_b, np.arange(3.0))]}


def test_shared_and_copied_arrays_are_identical(assert_results_identical):
    # The ROADMAP item-0 case: the serial result shares one ``lags``
    # object across curves, the fanned-out one carries equal copies.
    shared = np.array([0.0, 2.0, np.nan])
    assert_results_identical(_result(shared, shared), _result(shared.copy(), shared.copy()))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda c: replace(c, values=np.nextafter(c.values, 9.0)),
        lambda c: replace(c, values=c.values.astype(np.float32)),
        lambda c: replace(c, values=c.values.reshape(3, 1)),
        lambda c: replace(c, score=math.nextafter(0.5, 1.0)),
        lambda c: replace(c, score=float("nan")),
        lambda c: replace(c, label="d"),
        lambda c: replace(c, score=np.float64(0.5)),
    ],
    ids=["element", "dtype", "shape", "float", "nan-vs-number", "str", "type"],
)
def test_any_value_difference_is_caught(assert_results_identical, mutate):
    lags = np.array([0.0, 2.0, 4.0])
    base = _result(lags, lags)
    other = _result(lags, lags)
    other["curves"][1] = mutate(other["curves"][1])
    with pytest.raises(AssertionError, match=r"result\['curves'\]\[1\]"):
        assert_results_identical(base, other)


class _Slotted:
    """A plain object that keeps its fields in slots, equal by identity."""

    __slots__ = ("lags", "label")

    def __init__(self, lags, label):
        self.lags = lags
        self.label = label


def test_a_slotted_object_compares_by_its_fields(assert_results_identical):
    lags = np.array([0.0, 2.0])
    assert_results_identical(_Slotted(lags, "a"), _Slotted(lags.copy(), "a"))
    with pytest.raises(AssertionError, match=r"result\['label'\]"):
        assert_results_identical(_Slotted(lags, "a"), _Slotted(lags, "b"))
