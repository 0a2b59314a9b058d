"""Unified Scenario API: declarative experiments, one engine, one schema.

Every paper figure, table, sweep and live workload is registered as a
:class:`ScenarioSpec` — a ``build_jobs`` builder and a ``reduce`` to
metrics — against one process-global registry; the engine runs any of
them through the :mod:`repro.runtime.parallel` Job/Task machinery and
returns a uniform, JSON-serialisable :class:`RunResult` envelope::

    from repro.scenarios import list_scenarios, run_scenario

    for spec in list_scenarios():
        print(spec.name, spec.description)

    result = run_scenario("fig1", n=100, duration=25.0, jobs=3)
    result.metrics           # JSON-safe payload
    print(result.render())   # what `repro run fig1` prints
    print(result.to_json(indent=2))

The CLI (``repro run/list/describe``) is a thin veneer over exactly
these functions; see ``docs/SCENARIOS.md`` for the registration guide.
"""

from repro.scenarios.registry import (
    get,
    list_scenarios,
    load_builtins,
    register,
    run_scenario,
    run_sweep,
    scenario,
)
from repro.scenarios.spec import (
    DuplicateScenarioError,
    Param,
    ParamError,
    RUN_RESULT_SCHEMA,
    RunResult,
    ScenarioSpec,
    UnknownScenarioError,
)

__all__ = [
    "DuplicateScenarioError",
    "Param",
    "ParamError",
    "RUN_RESULT_SCHEMA",
    "RunResult",
    "ScenarioSpec",
    "UnknownScenarioError",
    "get",
    "list_scenarios",
    "load_builtins",
    "register",
    "run_scenario",
    "run_sweep",
    "scenario",
]
