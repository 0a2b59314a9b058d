"""The RunResult envelope: canonicalisation, JSON round-trip, equality."""

import json
import math

import numpy as np
import pytest

from repro.scenarios import RUN_RESULT_SCHEMA, RunResult


def _envelope(**overrides) -> RunResult:
    kwargs = dict(
        scenario="test",
        params={"n": 4, "duration": 2.5, "rates": (1.0, 2.0)},
        metrics={"value": 1.25, "series": (0.1, 0.2)},
        seed=4,
        wall_seconds=0.125,
    )
    kwargs.update(overrides)
    return RunResult(**kwargs)


class TestCanonicalisation:
    def test_numpy_arrays_become_tuples(self):
        result = _envelope(metrics={"xs": np.arange(3, dtype=float)})
        assert result.metrics["xs"] == (0.0, 1.0, 2.0)
        assert isinstance(result.metrics["xs"], tuple)

    def test_numpy_scalars_become_python(self):
        result = _envelope(
            metrics={"i": np.int64(3), "f": np.float64(0.5), "b": np.bool_(True)}
        )
        assert result.metrics == {"i": 3, "f": 0.5, "b": True}
        assert type(result.metrics["i"]) is int
        assert type(result.metrics["f"]) is float
        assert type(result.metrics["b"]) is bool

    def test_lists_become_tuples_deeply(self):
        result = _envelope(metrics={"nested": [[1, 2], [3]]})
        assert result.metrics["nested"] == ((1, 2), (3,))

    def test_numeric_mapping_keys_become_strings(self):
        result = _envelope(metrics={100: "a", 2.5: "b"})
        assert result.metrics == {"100": "a", "2.5": "b"}

    def test_unsafe_values_rejected(self):
        with pytest.raises(TypeError, match="not JSON-safe"):
            _envelope(metrics={"obj": object()})

    def test_unsafe_keys_rejected(self):
        with pytest.raises(TypeError, match="mapping key"):
            _envelope(metrics={("a", "b"): 1})


class TestJsonRoundTrip:
    def test_lossless(self):
        result = _envelope()
        reparsed = RunResult.from_json(result.to_json())
        assert reparsed == result
        assert reparsed.params == result.params
        assert reparsed.metrics == result.metrics
        assert reparsed.to_json() == result.to_json()

    def test_float_fidelity(self):
        value = 0.1 + 0.2  # 0.30000000000000004 — must survive exactly
        result = _envelope(metrics={"v": value})
        assert RunResult.from_json(result.to_json()).metrics["v"] == value

    def test_nan_and_inf_survive(self):
        result = _envelope(metrics={"nan": float("nan"), "inf": float("inf")})
        reparsed = RunResult.from_json(result.to_json())
        assert math.isnan(reparsed.metrics["nan"])
        assert reparsed.metrics["inf"] == float("inf")
        assert reparsed == result  # equality is NaN-tolerant

    def test_schema_stamped_and_checked(self):
        payload = json.loads(_envelope().to_json())
        assert payload["schema"] == RUN_RESULT_SCHEMA
        payload["schema"] = "something/else"
        with pytest.raises(ValueError, match="unsupported RunResult schema"):
            RunResult.from_json(json.dumps(payload))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            RunResult.from_json("[1, 2]")

    def test_file_round_trip(self, tmp_path):
        result = _envelope()
        path = tmp_path / "result.json"
        result.dump(path)
        assert RunResult.load(path) == result
        # dump() pretty-prints for reviewable diffs.
        assert path.read_text().count("\n") > 3


class TestProvenance:
    def test_round_trip(self):
        result = _envelope(provenance={"git_revision": "abc123", "fingerprint": "deadbeef"})
        reparsed = RunResult.from_json(result.to_json())
        assert reparsed.provenance == result.provenance
        assert reparsed == result

    def test_old_envelopes_without_provenance_load(self):
        payload = json.loads(_envelope().to_json())
        del payload["provenance"]  # an envelope written before the field existed
        loaded = RunResult.from_json(json.dumps(payload))
        assert loaded.provenance == {}

    def test_old_envelopes_with_sim_seconds_load(self):
        payload = json.loads(_envelope().to_json())
        payload["sim_seconds"] = 2.5  # a field older envelopes still carry
        assert RunResult.from_json(json.dumps(payload)) == _envelope()

    def test_collect_provenance_shape(self):
        from repro.util.provenance import collect_provenance

        info = collect_provenance()
        assert set(info) >= {"git_revision", "fingerprint", "hostname", "python"}
        assert isinstance(info["git_revision"], str) and info["git_revision"]
        # Fingerprint is a short stable hex digest of the machine identity.
        assert len(info["fingerprint"]) == 12
        int(info["fingerprint"], 16)
        # Callers get a copy — mutating it must not poison the cache.
        info["git_revision"] = "tampered"
        assert collect_provenance()["git_revision"] != "tampered"

    def test_run_scenario_stamps_provenance(self):
        from repro.scenarios.registry import run_scenario

        result = run_scenario("analyze")
        assert result.provenance.get("git_revision")
        assert result.provenance.get("fingerprint")


class TestEquality:
    def test_metrics_differences_detected(self):
        assert _envelope() != _envelope(metrics={"value": 2.0})

    def test_wall_seconds_participate(self):
        assert _envelope(wall_seconds=1.0) != _envelope(wall_seconds=2.0)

    def test_not_equal_to_other_types(self):
        assert _envelope() != {"scenario": "test"}


class TestRender:
    def test_golden(self):
        metrics = {
            "eta": -9.75,
            "ratio": 2 / 3,
            "missing": None,
            "undefined": float("nan"),
            "series": [0.5, 1, "x"],
            "empty": [],
            "nested": {"depth": 1, "inner": {"flag": True}},
            "cells": [
                {"rate": 674.0, "p_dcc": 0.5, "percent": 4.5312},
                {"rate": 1082.0, "p_dcc": 1.0, "percent": 5.04},
            ],
            "ragged": [{"a": 1}, {"b": 2}],
        }
        assert _envelope(metrics=metrics).render() == "\n".join([
            "eta: -9.75",
            "ratio: 0.6667",
            "missing: None",
            "undefined: nan",
            "series: [0.5, 1, x]",
            "empty: []",
            "nested:",
            "  depth: 1",
            "  inner:",
            "    flag: True",
            "cells:",
            "  rate  p_dcc  percent",
            "   674    0.5    4.531",
            "  1082      1     5.04",
            "ragged: [{'a': 1}, {'b': 2}]",
        ])
