"""The scenario registry: registration, lookup, parameter resolution."""

import numpy as np
import pytest

from repro.runtime.parallel import Job, Task
from repro.scenarios import (
    DuplicateScenarioError,
    Param,
    ParamError,
    ScenarioSpec,
    UnknownScenarioError,
    get,
    list_scenarios,
)
from repro.scenarios import registry as registry_module
from repro.scenarios.registry import _as_tasks, register, unregister


def _dummy_spec(name="dummy-spec", **kwargs) -> ScenarioSpec:
    defaults = dict(
        name=name,
        description="a test-only scenario",
        params=(Param("n", int, 4, "size"),),
        build_jobs=lambda params: [Task(fn=int, args=("7",))],
    )
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


class TestRegistration:
    def test_duplicate_name_raises(self):
        register(_dummy_spec())
        try:
            with pytest.raises(DuplicateScenarioError, match="dummy-spec"):
                register(_dummy_spec())
        finally:
            unregister("dummy-spec")

    def test_builtin_scenario_names_are_registered(self):
        names = {spec.name for spec in list_scenarios()}
        assert {
            "fig1", "fig10", "fig11", "fig12", "fig13", "fig14",
            "table3", "table5", "scaling", "calibration",
            "detect", "analyze", "live",
        } <= names

    def test_unknown_scenario_raises_with_suggestion(self):
        with pytest.raises(UnknownScenarioError, match="did you mean 'fig1'"):
            get("fig15")

    def test_list_by_tag(self):
        figures = list_scenarios(tag="figure")
        assert {spec.name for spec in figures} == {
            "fig1", "fig10", "fig11", "fig12", "fig13", "fig14"
        }

    def test_every_scenario_declares_a_seed(self):
        # The envelope records the seed; every workload must be
        # reproducible from its declared parameters.
        for spec in list_scenarios():
            assert "seed" in spec.param_names(), spec.name

    def test_every_scenario_smoke_resolves(self):
        for spec in list_scenarios():
            params = spec.smoke_params()
            assert set(params) == set(spec.param_names()), spec.name


class TestParamCoercion:
    def test_unknown_param_lists_declared_and_suggests(self):
        spec = get("fig11")
        with pytest.raises(ParamError, match="declared: n, freeriders"):
            spec.resolve({"bogus": 1})
        with pytest.raises(ParamError, match="did you mean 'shards'"):
            spec.resolve({"shard": 4})

    def test_bad_type_message_names_param_and_types(self):
        spec = get("fig1")
        with pytest.raises(ParamError, match="'n' expects int, got 'hello'"):
            spec.resolve({"n": "hello"})

    def test_string_coercion_for_cli_values(self):
        spec = get("fig1")
        params = spec.resolve({"n": "24", "duration": "4.5", "lags": "0,2,4"})
        assert params["n"] == 24
        assert params["duration"] == 4.5
        assert params["lags"] == (0.0, 2.0, 4.0)

    def test_float_param_accepts_int(self):
        spec = get("fig1")
        assert spec.resolve({"duration": 5})["duration"] == 5.0

    def test_int_param_rejects_fractional_float(self):
        spec = get("fig1")
        with pytest.raises(ParamError, match="'n' expects int"):
            spec.resolve({"n": 24.5})

    def test_bool_param_coercion(self):
        spec = get("detect")
        assert spec.resolve({"expel": "true"})["expel"] is True
        assert spec.resolve({"expel": "0"})["expel"] is False
        with pytest.raises(ParamError, match="'expel' expects bool"):
            spec.resolve({"expel": "maybe"})

    #: (declared type, "+" = a sequence of it; outside value; what comes back)
    COERCIONS = [
        ("bool", 1, True),
        ("bool", 0, False),
        ("bool", 2, ParamError),
        ("bool", "maybe", ParamError),
        ("int", 3.0, 3),
        ("int", np.int64(5), 5),
        ("int", "x", ParamError),
        ("int", True, ParamError),
        ("int", [3], ParamError),
        ("float", np.float32(0.5), 0.5),
        ("float", "x", ParamError),
        ("float", True, ParamError),
        ("float", [0.5], ParamError),
        ("str", "five", "five"),
        ("str", 5, ParamError),
        ("int+", np.arange(3), (0, 1, 2)),
        ("int+", 5, ParamError),
        ("dict", {}, ParamError),  # the declaration itself is refused
    ]

    @pytest.mark.parametrize(
        "kind, value, expected", COERCIONS, ids=[f"{k}:{v!r}" for k, v, _ in COERCIONS]
    )
    def test_coercion_table(self, kind, value, expected):
        declared = dict(
            type={"bool": bool, "int": int, "float": float, "str": str, "dict": dict}[
                kind.rstrip("+")
            ],
            sequence=kind.endswith("+"),
        )
        if expected is ParamError:
            with pytest.raises(ParamError, match="parameter 'p'"):
                Param("p", **declared).coerce(value)
        else:
            coerced = Param("p", **declared).coerce(value)
            assert coerced == expected and type(coerced) is type(expected)

    def test_validator_constraint_in_message(self):
        spec = get("fig1")
        with pytest.raises(ParamError, match=">= 8"):
            spec.resolve({"n": 2})

    def test_none_means_default(self):
        spec = get("fig1")
        assert spec.resolve({"lags": None})["lags"] == spec.param("lags").default

    def test_resolution_order_matches_declaration(self):
        spec = get("fig1")
        assert list(spec.resolve({})) == list(spec.param_names())

    def test_sequence_default_normalised_to_tuple(self):
        param = Param("xs", float, [1, 2], sequence=True)
        assert param.default == (1.0, 2.0)

    def test_duplicate_param_names_rejected(self):
        with pytest.raises(ParamError, match="duplicate parameter"):
            _dummy_spec(params=(Param("n", int, 1), Param("n", int, 2)))


class TestWorkNormalisation:
    def test_job_provenance_stamped(self):
        job = Job(config=None, until=1.0, extractors=())
        [task] = _as_tasks([job], {"n": 4, "rates": (1.0, 2.0)}, "dummy")
        stamped = task.args[0]
        assert stamped.params == (("n", 4), ("rates", (1.0, 2.0)))

    def test_job_existing_provenance_kept(self):
        job = Job(config=None, until=1.0, extractors=(), params={"mine": 1})
        [task] = _as_tasks([job], {"n": 4}, "dummy")
        assert task.args[0].params == (("mine", 1),)

    def test_tasks_pass_through(self):
        task = Task(fn=int, args=("3",), key="k")
        assert _as_tasks([task], {}, "dummy") == [task]

    def test_rejects_other_item_types(self):
        with pytest.raises(TypeError, match="Job or Task"):
            _as_tasks([object()], {}, "dummy")


class TestEngine:
    def test_reduce_returns_the_metrics(self):
        register(
            _dummy_spec(
                name="dummy-single",
                reduce=lambda results, params: {"value": results[0], "n": params["n"]},
            )
        )
        try:
            result = registry_module.run_scenario("dummy-single")
            assert result.metrics == {"value": 7, "n": 4}
        finally:
            unregister("dummy-single")

    def test_multi_result_without_reduce_raises(self):
        register(
            _dummy_spec(
                name="dummy-multi",
                build_jobs=lambda params: [Task(fn=int), Task(fn=int)],
            )
        )
        try:
            with pytest.raises(TypeError, match="reduce"):
                registry_module.run_scenario("dummy-multi")
        finally:
            unregister("dummy-multi")

    def test_non_mapping_result_without_reduce_raises(self):
        register(
            _dummy_spec(
                name="dummy-nosumm",
                build_jobs=lambda params: [Task(fn=list)],
            )
        )
        try:
            with pytest.raises(TypeError, match="reduce"):
                registry_module.run_scenario("dummy-nosumm")
        finally:
            unregister("dummy-nosumm")

    def test_mapping_artifact_is_metrics(self):
        register(
            _dummy_spec(
                name="dummy-map",
                build_jobs=lambda params: [Task(fn=dict, kwargs={"x": 1})],
            )
        )
        try:
            result = registry_module.run_scenario("dummy-map")
            assert result.metrics == {"x": 1}
        finally:
            unregister("dummy-map")
