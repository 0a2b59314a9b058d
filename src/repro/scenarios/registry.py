"""The process-global scenario registry and its execution engine.

Every experiment registers a :class:`~repro.scenarios.spec.ScenarioSpec`
(usually via the :func:`scenario` decorator next to its experiment
code); the engine here turns a registered spec plus parameter overrides
into a :class:`~repro.scenarios.spec.RunResult`:

1. ``spec.resolve(overrides)`` validates the parameters,
2. ``spec.build_jobs(params)`` declares the work — a list of
   :class:`~repro.runtime.parallel.Job` (simulated deployments) and/or
   ``Task`` (generic picklable callables) items,
3. the work runs through :func:`repro.runtime.parallel.run_tasks` with
   the ``jobs`` parameter's worker fan-out (bit-identical to serial),
4. ``spec.reduce(results, params)`` returns the JSON-safe metrics
   payload of the envelope (without a reducer the single work item
   returns it itself).

Adding a scenario is therefore a builder plus a reducer next to the
experiment code — no CLI surgery, no result type, no renderer (see
``docs/SCENARIOS.md``).
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.runtime.parallel import Job, Task, run_tasks
from repro.runtime.parallel import _execute_job  # the worker-side Job body
from repro.scenarios.spec import (
    DuplicateScenarioError,
    Param,
    ParamError,
    RunResult,
    ScenarioSpec,
    UnknownScenarioError,
)

__all__ = [
    "get",
    "list_scenarios",
    "load_builtins",
    "register",
    "run_scenario",
    "run_sweep",
    "scenario",
]

_REGISTRY: Dict[str, ScenarioSpec] = {}
_BUILTINS_LOADED = False


def load_builtins() -> None:
    """Import every module that registers a built-in scenario.

    Idempotent; called lazily by :func:`get`/:func:`list_scenarios` so
    that ``import repro`` stays cheap and registration stays next to
    the experiment code it describes.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    # The experiments package imports every fig/table/scaling module;
    # builtin.py holds the scenarios without a module of their own
    # (detect, analyze, live, ...).
    import repro.experiments  # noqa: F401
    import repro.scenarios.builtin  # noqa: F401


def register(spec: ScenarioSpec) -> ScenarioSpec:
    """Register ``spec`` under its name (duplicate names are an error)."""
    if spec.name in _REGISTRY:
        raise DuplicateScenarioError(
            f"scenario {spec.name!r} is already registered "
            f"({_REGISTRY[spec.name].description!r}); scenario names are "
            f"process-global and must be unique"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a registration (tests only)."""
    _REGISTRY.pop(name, None)


def scenario(
    name: str,
    description: str,
    *,
    params: Sequence[Param] = (),
    reduce: Optional[Callable] = None,
    tags: Sequence[str] = (),
    smoke: Optional[Mapping[str, Any]] = None,
) -> Callable[[Callable], ScenarioSpec]:
    """Decorator form of :func:`register`.

    Decorates the ``build_jobs(params)`` builder and returns the
    registered :class:`ScenarioSpec`::

        @scenario(
            "fig1", "Figure 1 — ...",
            params=[Param("n", int, 150, "system size"), ...],
            reduce=_reduce, tags=("figure",),
            smoke={"n": 24, "duration": 4.0},
        )
        def _fig1_scenario(params):
            return [...Job/Task list...]
    """

    def decorate(build_jobs: Callable) -> ScenarioSpec:
        return register(
            ScenarioSpec(
                name=name,
                description=description,
                params=tuple(params),
                build_jobs=build_jobs,
                reduce=reduce,
                tags=tuple(tags),
                smoke=dict(smoke or {}),
            )
        )

    return decorate


def get(name: str) -> ScenarioSpec:
    """Look a scenario up by name (with close-match hints on typos)."""
    load_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        import difflib

        known = sorted(_REGISTRY)
        close = difflib.get_close_matches(name, known, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise UnknownScenarioError(
            f"unknown scenario {name!r} (registered: {', '.join(known)}){hint}"
        ) from None


def list_scenarios(tag: Optional[str] = None) -> List[ScenarioSpec]:
    """All registered scenarios, sorted by name (optionally by tag)."""
    load_builtins()
    specs = sorted(_REGISTRY.values(), key=lambda spec: spec.name)
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


def _as_tasks(
    work: Sequence[Any], params: Mapping[str, Any], name: str
) -> List[Task]:
    """Normalise a builder's work list to tasks, stamping provenance."""
    tasks: List[Task] = []
    for item in work:
        if isinstance(item, Job):
            if not item.params:
                item = replace(item, params=tuple(params.items()))
            tasks.append(Task(fn=_execute_job, args=(item,), key=item.key))
        elif isinstance(item, Task):
            tasks.append(item)
        else:
            raise TypeError(
                f"scenario {name!r}: build_jobs must yield Job or Task "
                f"items, got {type(item).__name__}"
            )
    return tasks


def run_scenario(name: str, **overrides: Any) -> RunResult:
    """Resolve, build, execute and reduce one scenario run.

    Any declared parameter can be overridden by keyword; the ``jobs``
    parameter (when declared) fans independent work items out to a
    process pool with bit-identical results.  Returns the
    :class:`RunResult` envelope of the run's metrics.
    """
    spec = get(name)
    params = spec.resolve(overrides)
    start = time.perf_counter()
    work = list(spec.build_jobs(params))
    jobs = params.get("jobs", 1)
    jobs = int(jobs) if isinstance(jobs, int) and not isinstance(jobs, bool) else 1
    results = run_tasks(_as_tasks(work, params, name), jobs=jobs)
    if spec.reduce is not None:
        metrics = spec.reduce(results, params)
    elif len(results) == 1 and isinstance(results[0], Mapping):
        metrics = results[0]
    else:
        raise TypeError(
            f"scenario {name!r} produced {len(results)} result(s) that are "
            f"not one metrics mapping; it needs a reduce()"
        )
    wall = time.perf_counter() - start
    seed = params.get("seed")
    from repro.util.provenance import collect_provenance

    return RunResult(
        scenario=name,
        params=params,
        metrics=metrics,
        seed=seed if isinstance(seed, int) and not isinstance(seed, bool) else None,
        wall_seconds=wall,
        provenance=collect_provenance(),
    )


def run_sweep(
    name: str,
    axes: Mapping[str, Sequence[Any]],
    **overrides: Any,
) -> List[RunResult]:
    """Run ``name`` once per cell of the product of ``axes``.

    ``axes`` maps declared parameter names to value lists (strings are
    fine — each cell goes through the scenario's own coercion).  Cells
    run in the product's lexicographic order (first axis slowest), each
    as a full :func:`run_scenario` with ``overrides`` applied beneath
    the cell's axis values, and every cell gets its own provenance-
    stamped envelope — a sweep is comparable across machines cell by
    cell.  Axis names shadowing an ``overrides`` key are an error (a
    swept parameter cannot also be pinned).
    """
    import itertools

    spec = get(name)
    if not axes:
        raise ParamError(f"scenario {name!r}: a sweep needs at least one axis")
    keys: List[str] = []
    value_lists: List[List[Any]] = []
    for key, values in axes.items():
        spec.param(key)  # raises ParamError on unknown names
        if key in overrides:
            raise ParamError(
                f"scenario {name!r}: parameter {key!r} is both swept and "
                f"pinned; drop it from one side"
            )
        values = list(values)
        if not values:
            raise ParamError(
                f"scenario {name!r}: sweep axis {key!r} has no values"
            )
        keys.append(key)
        value_lists.append(values)
    results: List[RunResult] = []
    for combo in itertools.product(*value_lists):
        cell = dict(zip(keys, combo))
        results.append(run_scenario(name, **{**overrides, **cell}))
    return results
