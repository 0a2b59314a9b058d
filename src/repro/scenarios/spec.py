"""Declarative scenario descriptions and the structured result envelope.

A *scenario* is one runnable experiment — a paper figure, a sweep, a
live deployment — described as data instead of as a hand-wired module +
CLI subcommand pair:

* :class:`Param` — one typed, documented, validated parameter with a
  default.  The CLI derives its flags from these declarations, so a
  scenario can never "silently lack" a flag its parameters support.
* :class:`ScenarioSpec` — the frozen description: name, description,
  parameter declarations, a ``build_jobs(params)`` builder producing
  :class:`~repro.runtime.parallel.Job`/``Task`` work items, and a
  ``reduce(results, params)`` reducer returning the JSON-safe metrics
  payload (without one, the single work item returns it itself).
* :class:`RunResult` — the uniform envelope every scenario run returns:
  scenario name, resolved parameters, seed, wall time and the metrics
  payload, serialisable to/from JSON (:meth:`RunResult.to_json` /
  :meth:`RunResult.from_json`) so that experiment outputs and
  benchmark baselines share one schema; :meth:`RunResult.render` is
  the text ``repro run`` prints.

The process-global registry and the engine that executes specs live in
:mod:`repro.scenarios.registry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "DuplicateScenarioError",
    "Param",
    "ParamError",
    "RUN_RESULT_SCHEMA",
    "RunResult",
    "ScenarioSpec",
    "UnknownScenarioError",
]

#: schema tag stamped into every serialised :class:`RunResult`.
RUN_RESULT_SCHEMA = "repro.run_result/1"


class ParamError(ValueError):
    """An override does not match the scenario's parameter declarations."""


class UnknownScenarioError(KeyError):
    """No scenario with the requested name is registered."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0] if self.args else ""


class DuplicateScenarioError(ValueError):
    """A scenario name was registered twice."""


_TRUE_STRINGS = frozenset({"1", "true", "yes", "on"})
_FALSE_STRINGS = frozenset({"0", "false", "no", "off"})


@dataclass(frozen=True)
class Param:
    """One declared scenario parameter.

    ``type`` is one of ``int``/``float``/``str``/``bool``;
    ``sequence=True`` declares a homogeneous tuple of that scalar type
    (CLI: ``nargs='+'`` flags, or comma-separated ``--set`` values).
    ``validate`` is an optional predicate on the coerced value (its
    docstring-less lambda is described by ``constraint`` in error
    messages).
    """

    name: str
    type: type = float
    default: Any = None
    help: str = ""
    sequence: bool = False
    validate: Optional[Callable[[Any], bool]] = None
    #: human description of ``validate`` for error messages/``describe``.
    constraint: str = ""

    def __post_init__(self) -> None:
        if self.type not in (int, float, str, bool):
            raise ParamError(
                f"parameter {self.name!r}: type must be int, float, str or "
                f"bool, got {self.type!r}"
            )
        # Normalise the default through the same path as overrides so a
        # declaration with e.g. a list default still resolves to a tuple.
        if self.default is not None:
            object.__setattr__(self, "default", self.coerce(self.default))

    # -- coercion ------------------------------------------------------
    def _coerce_scalar(self, value: Any) -> Any:
        kind = self.type
        if kind is bool:
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                lowered = value.strip().lower()
                if lowered in _TRUE_STRINGS:
                    return True
                if lowered in _FALSE_STRINGS:
                    return False
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            raise self._type_error(value)
        if kind is int:
            if isinstance(value, bool):
                raise self._type_error(value)
            if isinstance(value, int):
                return int(value)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                try:
                    return int(value.strip())
                except ValueError:
                    raise self._type_error(value) from None
            if hasattr(value, "item"):  # numpy scalars
                return self._coerce_scalar(value.item())
            raise self._type_error(value)
        if kind is float:
            if isinstance(value, bool):
                raise self._type_error(value)
            if isinstance(value, (int, float)):
                return float(value)
            if isinstance(value, str):
                try:
                    return float(value.strip())
                except ValueError:
                    raise self._type_error(value) from None
            if hasattr(value, "item"):
                return self._coerce_scalar(value.item())
            raise self._type_error(value)
        # str
        if isinstance(value, str):
            return value
        raise self._type_error(value)

    def _type_error(self, value: Any) -> ParamError:
        shape = f"a sequence of {self.type.__name__}" if self.sequence else self.type.__name__
        return ParamError(
            f"parameter {self.name!r} expects {shape}, got {value!r} "
            f"({type(value).__name__}); see `repro describe` for the "
            f"declared parameters"
        )

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` (possibly a CLI string) to the declared type.

        Raises :class:`ParamError` with an actionable message otherwise.
        """
        if self.sequence:
            if isinstance(value, str):
                parts = [p for p in value.split(",") if p.strip() != ""]
                out = tuple(self._coerce_scalar(p) for p in parts)
            elif isinstance(value, Sequence) or hasattr(value, "tolist"):
                items = value.tolist() if hasattr(value, "tolist") else value
                out = tuple(self._coerce_scalar(v) for v in items)
            else:
                raise self._type_error(value)
        else:
            out = self._coerce_scalar(value)
        if self.validate is not None and not self.validate(out):
            constraint = self.constraint or "failed its validation predicate"
            raise ParamError(f"parameter {self.name!r} = {out!r}: {constraint}")
        return out

    def describe(self) -> str:
        """One-line rendering for ``repro describe``."""
        kind = f"[{self.type.__name__}...]" if self.sequence else self.type.__name__
        text = f"{self.name} ({kind}, default {self.default!r})"
        if self.help:
            text += f" — {self.help}"
        if self.constraint:
            text += f" [{self.constraint}]"
        return text


def _canonical(value: Any, *, where: str) -> Any:
    """Deep-normalise a params/metrics payload to a JSON-stable form.

    dicts keep insertion order with string keys, every sequence becomes
    a tuple, numpy scalars/arrays become python scalars / tuples.  The
    canonical form is what both the live object and the JSON round-trip
    produce, so ``from_json(to_json(r)) == r`` holds exactly.
    """
    if isinstance(value, Mapping):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if isinstance(key, bool) or not isinstance(key, (str, int, float)):
                raise TypeError(
                    f"{where}: mapping key {key!r} is not JSON-safe; use "
                    f"string keys in metrics payloads"
                )
            out[key if isinstance(key, str) else str(key)] = _canonical(
                item, where=where
            )
        return out
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item, where=where) for item in value)
    if hasattr(value, "tolist") and not isinstance(value, (str, bytes)):  # numpy
        return _canonical(value.tolist(), where=where)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    raise TypeError(
        f"{where}: {value!r} ({type(value).__name__}) is not JSON-safe; "
        f"a scenario's metrics must be str/int/float/bool/None, sequences "
        f"and string-keyed mappings"
    )


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, tuple):
        return "[" + ", ".join(_cell(item) for item in value) + "]"
    return str(value)


def _is_table(value: Any) -> bool:
    """A non-empty sequence of flat mappings sharing one key set."""
    return (
        isinstance(value, tuple)
        and len(value) > 0
        and all(isinstance(row, Mapping) for row in value)
        and all(row.keys() == value[0].keys() for row in value)
        and not any(isinstance(cell, Mapping) for row in value for cell in row.values())
    )


def _render(mapping: Mapping[str, Any], indent: str) -> Iterator[str]:
    for key, value in mapping.items():
        if isinstance(value, Mapping):
            yield f"{indent}{key}:"
            yield from _render(value, indent + "  ")
        elif _is_table(value):
            rows = [list(value[0])] + [[_cell(row[k]) for k in value[0]] for row in value]
            widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
            yield f"{indent}{key}:"
            for row in rows:
                yield indent + "  " + "  ".join(c.rjust(w) for c, w in zip(row, widths))
        else:
            yield f"{indent}{key}: {_cell(value)}"


@dataclass(frozen=True, eq=False)
class RunResult:
    """The uniform, serialisable envelope of one scenario run.

    ``metrics`` is the JSON-safe payload the scenario's ``reduce`` (or
    its single work item) returned, canonicalised at construction.
    """

    scenario: str
    params: Mapping[str, Any]
    metrics: Mapping[str, Any]
    seed: Optional[int] = None
    wall_seconds: float = 0.0
    #: who/where/what produced this result (git revision, host
    #: fingerprint — see :mod:`repro.util.provenance`); empty for
    #: envelopes predating the field.
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "params", _canonical(self.params, where=f"{self.scenario} params")
        )
        object.__setattr__(
            self, "metrics", _canonical(self.metrics, where=f"{self.scenario} metrics")
        )
        object.__setattr__(
            self,
            "provenance",
            _canonical(self.provenance, where=f"{self.scenario} provenance"),
        )

    def render(self) -> str:
        """The metrics as text (what ``repro run`` prints): ``key: value``
        lines, nested mappings indented, floats to 4 significant digits,
        a sequence of flat mappings sharing one key set as an aligned
        table, any other sequence inline."""
        return "\n".join(_render(self.metrics, ""))

    # -- serialisation -------------------------------------------------
    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise the envelope to JSON."""
        payload = {
            "schema": RUN_RESULT_SCHEMA,
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "wall_seconds": self.wall_seconds,
            "provenance": self.provenance,
            "metrics": self.metrics,
        }
        return json.dumps(payload, indent=indent, allow_nan=True)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Parse a serialised envelope back into a :class:`RunResult`."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("RunResult JSON must be an object")
        schema = payload.get("schema")
        if schema != RUN_RESULT_SCHEMA:
            raise ValueError(
                f"unsupported RunResult schema {schema!r} "
                f"(expected {RUN_RESULT_SCHEMA!r})"
            )
        return cls(
            scenario=payload["scenario"],
            params=payload.get("params", {}),
            metrics=payload.get("metrics", {}),
            seed=payload.get("seed"),
            wall_seconds=payload.get("wall_seconds", 0.0),
            # Envelopes written before the field existed stay loadable
            # (and older ones carrying "sim_seconds" load without it).
            provenance=payload.get("provenance", {}),
        )

    @classmethod
    def load(cls, path) -> "RunResult":
        """Read an envelope from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def dump(self, path, *, indent: int = 2) -> None:
        """Write the envelope to a JSON file (pretty-printed)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=indent) + "\n")

    def with_metrics(self, metrics: Mapping[str, Any]) -> "RunResult":
        """Copy with a replaced metrics payload (baseline recorders)."""
        return replace(self, metrics=metrics)

    # -- equality ------------------------------------------------------
    def __eq__(self, other: Any) -> bool:
        # Serialised form is the identity: NaN-tolerant (json spells
        # every float, including NaN/inf, the same way on both sides).
        if not isinstance(other, RunResult):
            return NotImplemented
        return self.to_json() == other.to_json()

    __hash__ = None  # mutable-mapping fields; not hashable


#: builder: resolved params -> work items (Job or Task instances).
Builder = Callable[[Mapping[str, Any]], Sequence[Any]]
#: reducer: (work-item results in submission order, params) -> metrics.
Reducer = Callable[[Sequence[Any], Mapping[str, Any]], Mapping[str, Any]]


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative description of one runnable scenario."""

    name: str
    description: str
    params: Tuple[Param, ...]
    build_jobs: Builder
    #: reduces the work-item results to the JSON-safe metrics payload;
    #: ``None`` means "single work item, its result is the metrics".
    reduce: Optional[Reducer] = None
    tags: Tuple[str, ...] = ()
    #: parameter overrides for a seconds-scale smoke run (benchmarks,
    #: round-trip tests); empty = the defaults are already smoke-sized.
    smoke: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(self, "smoke", dict(self.smoke))
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ParamError(f"scenario {self.name!r}: duplicate parameter names")

    # -- parameter resolution -----------------------------------------
    def param(self, name: str) -> Param:
        """The declaration of one parameter."""
        for p in self.params:
            if p.name == name:
                return p
        raise self._unknown_param(name)

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def _unknown_param(self, name: str) -> ParamError:
        import difflib

        names = self.param_names()
        hint = ""
        close = difflib.get_close_matches(name, names, n=1)
        if close:
            hint = f"; did you mean {close[0]!r}?"
        return ParamError(
            f"scenario {self.name!r} has no parameter {name!r} "
            f"(declared: {', '.join(names)}){hint}"
        )

    def resolve(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate ``overrides`` against the declarations.

        Returns the full parameter dict in declaration order.  Unknown
        names and type mismatches raise :class:`ParamError` with a
        message naming the declared parameters.
        """
        declared = {p.name: p for p in self.params}
        for name in overrides:
            if name not in declared:
                raise self._unknown_param(name)
        resolved: Dict[str, Any] = {}
        for p in self.params:
            if p.name in overrides and overrides[p.name] is not None:
                # ``None`` means "use the default": a caller forwards
                # its own optional keyword arguments verbatim.
                try:
                    resolved[p.name] = p.coerce(overrides[p.name])
                except ParamError as exc:
                    raise ParamError(f"scenario {self.name!r}: {exc}") from None
            else:
                resolved[p.name] = p.default
        return resolved

    def smoke_params(self) -> Dict[str, Any]:
        """The resolved parameter set of a smoke-sized run."""
        return self.resolve(self.smoke)
