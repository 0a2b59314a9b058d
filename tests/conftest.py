"""Shared fixtures: small, fast deployments and canonical parameters."""

from __future__ import annotations

import dataclasses
import gc
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.config import GossipParams, LiftingParams, planetlab_params
from repro.experiments.cluster import ClusterConfig, SimCluster

from object_fields import fields_of


def _assert_results_identical(a, b, path="result"):
    """Structural, value-exact equality of two experiment results.

    Recurses through dataclasses, plain objects, dicts (same key order)
    and sequences; arrays must agree in dtype, shape and every element,
    floats exactly (NaN matching NaN).  Unlike comparing
    ``pickle.dumps`` streams it is blind to object *identity*: a result
    whose curves share one array object equals one carrying equal
    copies, which is all a process boundary can preserve.
    """
    assert type(a) is type(b), f"{path}: {type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, (
            f"{path}: {a.dtype}{a.shape} vs {b.dtype}{b.shape}"
        )
        assert np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"), f"{path}: arrays differ"
    elif isinstance(a, dict):
        assert list(a) == list(b), f"{path}: keys {list(a)} vs {list(b)}"
        for key in a:
            _assert_results_identical(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: length {len(a)} vs {len(b)}"
        for i, (left, right) in enumerate(zip(a, b)):
            _assert_results_identical(left, right, f"{path}[{i}]")
    elif isinstance(a, float):
        assert a == b or (math.isnan(a) and math.isnan(b)), f"{path}: {a!r} vs {b!r}"
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            _assert_results_identical(
                getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}"
            )
    elif not isinstance(a, type) and (
        # a slotted object with an equality of its own compares with it
        hasattr(a, "__dict__") or (hasattr(a, "__slots__") and type(a).__eq__ is object.__eq__)
    ):
        _assert_results_identical(fields_of(a), fields_of(b), path)
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


@pytest.fixture
def assert_results_identical():
    """The one equality every equivalence test asserts results with."""
    return _assert_results_identical


@pytest.fixture
def collector_on():
    """Automatic cyclic collection enabled for the test (it may switch
    it off itself); whatever the suite had is restored afterwards."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.fixture
def rng():
    """A deterministic numpy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_gossip() -> GossipParams:
    """A tiny but functional protocol configuration."""
    gossip, _lifting = planetlab_params()
    return replace(gossip, n=24, fanout=4, source_fanout=4, chunk_size=2048)


@pytest.fixture
def small_lifting() -> LiftingParams:
    """LiFTinG parameters shrunk for fast tests."""
    _gossip, lifting = planetlab_params()
    return replace(lifting, managers=5, history_periods=10, min_periods_before_expel=6)


@pytest.fixture
def small_cluster_factory(small_gossip, small_lifting):
    """Build small clusters with overrides: ``factory(freerider_fraction=...)``."""

    def factory(**overrides) -> SimCluster:
        config_kwargs = dict(
            gossip=small_gossip,
            lifting=small_lifting,
            seed=42,
            loss_rate=0.03,
        )
        gossip_overrides = {}
        lifting_overrides = {}
        for key in list(overrides):
            if hasattr(small_gossip, key) and key not in ("gossip", "lifting"):
                gossip_overrides[key] = overrides.pop(key)
            elif hasattr(small_lifting, key) and key not in ("gossip", "lifting"):
                lifting_overrides[key] = overrides.pop(key)
        config_kwargs.update(overrides)
        if gossip_overrides:
            config_kwargs["gossip"] = replace(small_gossip, **gossip_overrides)
        if lifting_overrides:
            config_kwargs["lifting"] = replace(small_lifting, **lifting_overrides)
        return SimCluster(ClusterConfig(**config_kwargs))

    return factory
