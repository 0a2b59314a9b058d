"""Command-line interface: one generic entry point over the scenario registry.

Run as ``python -m repro.cli``, or as the ``repro`` console script
``setup.py`` installs.  Core subcommands:

* ``repro list [--tag TAG]`` — every registered scenario.
* ``repro describe <scenario>`` — description, tags and the declared
  parameters (types, defaults, constraints).
* ``repro run <scenario> [--<param> ...] [--set k=v ...]`` — run any
  scenario.  **Flags are derived from the scenario's ``Param``
  declarations**, so every scenario accepts exactly the parameters it
  declares (``--seed``, ``--jobs``, ... — nothing is hand-wired and
  nothing can silently go missing).  It prints the run's metrics
  (:meth:`~repro.scenarios.RunResult.render`).

``repro run`` also accepts ``--json PATH`` (write the
structured :class:`~repro.scenarios.RunResult` envelope; ``-`` =
stdout) and ``--profile PATH`` (dump sorted cProfile stats of the run —
the starting point of every performance PR, see docs/PERFORMANCE.md).

``repro audit-verify PATH`` checks (and with ``--recover`` rolls back)
the HMAC-chained audit log a ``detect`` run on ``plane=live`` writes
(``--set audit_log=PATH``).

Experiments that drive several independent deployments accept
``--jobs N`` to fan them out over N worker processes (``--jobs 0`` =
all cores) with bit-identical results; see docs/SCENARIOS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Mapping, Optional

from repro.scenarios import (
    ParamError,
    RunResult,
    ScenarioSpec,
    UnknownScenarioError,
    get,
    list_scenarios,
    run_scenario,
    run_sweep,
)

# ----------------------------------------------------------------------
# flag derivation from Param declarations
# ----------------------------------------------------------------------


def _flag_spelling(name: str) -> str:
    return name.replace("_", "-")


def _add_scenario_flags(parser: argparse.ArgumentParser, spec: ScenarioSpec) -> Dict[str, str]:
    """Derive one flag per declared parameter; returns dest -> param name.

    Flags default to ``argparse.SUPPRESS`` so that only explicitly
    passed values become overrides — the scenario's own declarations
    fill in the rest.
    """
    dest_to_param: Dict[str, str] = {}
    for param in spec.params:
        help_text = param.help or param.name
        if param.constraint:
            help_text += f" [{param.constraint}]"
        help_text += f" (default: {param.default!r})"
        kwargs: Dict[str, Any] = dict(default=argparse.SUPPRESS, help=help_text)
        if param.type is bool:
            kwargs["action"] = argparse.BooleanOptionalAction
        elif param.sequence:
            kwargs.update(nargs="+", type=param.type, metavar=param.type.__name__.upper())
        else:
            kwargs.update(type=param.type, metavar=param.type.__name__.upper())
        action = parser.add_argument(f"--{_flag_spelling(param.name)}", **kwargs)
        dest_to_param[action.dest] = param.name
    return dest_to_param


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="PARAM=VALUE",
        dest="set_pairs",
        help="override any declared parameter by name "
        "(sequences comma-separated, e.g. --set sizes=100,300)",
    )
    parser.add_argument(
        "--sweep",
        action="append",
        default=[],
        metavar="PARAM=A,B,C",
        dest="sweep_pairs",
        help="run the product sweep over the listed values (repeatable; "
        "one full run per cell — e.g. --sweep rate=500,1000 --sweep n=8,16; "
        "for sequence params separate values inside a cell with ':')",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        dest="json_path",
        help="write the RunResult envelope as JSON ('-' = stdout; "
        "a JSON array of envelopes under --sweep)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        default=None,
        help="dump sorted cProfile stats of the run to PATH",
    )


def _collect_overrides(
    spec: ScenarioSpec,
    args: argparse.Namespace,
    dest_to_param: Mapping[str, str],
) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for dest, param_name in dest_to_param.items():
        if hasattr(args, dest):
            overrides[param_name] = getattr(args, dest)
    for pair in getattr(args, "set_pairs", []):
        if "=" not in pair:
            raise ParamError(f"--set expects PARAM=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip().replace("-", "_")] = value
    return overrides


def _collect_sweep_axes(spec: ScenarioSpec, args: argparse.Namespace) -> Dict[str, List[str]]:
    """Parse repeated ``--sweep param=a,b,c`` flags into an axes mapping.

    Values stay strings (each cell goes through the scenario's own
    coercion); for sequence-typed parameters a cell's inner values are
    separated by ``:`` (e.g. ``--sweep deltas=0.1:0.1:0.1,0.3:0.3:0.3``)
    and rewritten to the comma form the coercer expects.  A scalar
    ``str`` cell keeps its ``:`` (``--sweep audit_log=runs/a:b.jsonl``).
    """
    axes: Dict[str, List[str]] = {}
    for pair in getattr(args, "sweep_pairs", []):
        if "=" not in pair:
            raise ParamError(f"--sweep expects PARAM=A,B,C, got {pair!r}")
        key, _, values = pair.partition("=")
        key = key.strip().replace("-", "_")
        sequence = spec.param(key).sequence
        cells = [
            cell.strip().replace(":", ",") if sequence else cell.strip()
            for cell in values.split(",")
            if cell.strip() != ""
        ]
        if not cells:
            raise ParamError(f"--sweep {key}= lists no values")
        if key in axes:
            raise ParamError(f"--sweep names {key!r} twice")
        axes[key] = cells
    return axes


def _execute_sweep(
    spec: ScenarioSpec,
    axes: Mapping[str, List[str]],
    overrides: Mapping[str, Any],
    args: argparse.Namespace,
) -> int:
    import json as _json

    results = run_sweep(spec.name, axes, **overrides)
    json_path = getattr(args, "json_path", None)
    payload = _json.dumps(
        [_json.loads(result.to_json()) for result in results], indent=2
    )
    if json_path == "-":
        print(payload)
        return 0
    for result in results:
        cell = ", ".join(f"{key}={result.params[key]!r}" for key in axes)
        print(f"=== {spec.name} [{cell}] ===")
        print(result.render())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {json_path} ({len(results)} cells)", file=sys.stderr)
    return 0


def _execute(
    spec: ScenarioSpec, overrides: Mapping[str, Any], args: argparse.Namespace
) -> int:
    axes = _collect_sweep_axes(spec, args)
    profile_path = getattr(args, "profile", None)
    if axes:
        if profile_path:
            raise ParamError("--profile cannot be combined with --sweep: profile one cell")
        # A parameter that is both swept and pinned is a ParamError from
        # run_sweep — surfaced like any other parameter mistake.
        return _execute_sweep(spec, axes, overrides, args)
    from repro.util.profiling import maybe_profile

    with maybe_profile(profile_path):  # a no-op without --profile
        result = run_scenario(spec.name, **overrides)

    json_path = getattr(args, "json_path", None)
    if json_path == "-":
        print(result.to_json(indent=2))
        return 0
    print(result.render())
    if json_path:
        result.dump(json_path)
        print(f"wrote {json_path}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def _cmd_run(argv: List[str]) -> int:
    """``repro run <scenario> [--flags] [--set k=v]`` — fully generic."""
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: repro run <scenario> [--<param> VALUE ...] [--set k=v ...]")
        print("       repro describe <scenario>   # parameter details\n")
        print("registered scenarios:")
        for spec in list_scenarios():
            print(f"  {spec.name:12s} {spec.description}")
        return 0
    name = argv[0]
    try:
        spec = get(name)
    except UnknownScenarioError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        prog=f"repro run {spec.name}", description=spec.description
    )
    dest_to_param = _add_scenario_flags(parser, spec)
    _add_run_options(parser)
    args = parser.parse_args(argv[1:])
    try:
        overrides = _collect_overrides(spec, args, dest_to_param)
        return _execute(spec, overrides, args)
    except ParamError as exc:
        print(f"repro run {spec.name}: {exc}", file=sys.stderr)
        return 2


def _cmd_list(args: argparse.Namespace) -> int:
    specs = list_scenarios(tag=args.tag)
    if not specs:
        print(f"no scenarios tagged {args.tag!r}", file=sys.stderr)
        return 1
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.name:{width}s}  [{tags}]  {spec.description}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        spec = get(args.scenario)
    except UnknownScenarioError as exc:
        print(f"repro describe: {exc}", file=sys.stderr)
        return 2
    print(f"{spec.name} — {spec.description}")
    if spec.tags:
        print(f"tags: {', '.join(spec.tags)}")
    print("\nparameters:")
    for param in spec.params:
        print(f"  {param.describe()}")
    if spec.smoke:
        pairs = ", ".join(f"{k}={v!r}" for k, v in spec.smoke.items())
        print(f"\nsmoke-size overrides: {pairs}")
    example = " ".join(
        f"--{_flag_spelling(p.name)} ..." for p in spec.params[:2]
    )
    print(f"\nrun it:  repro run {spec.name} {example}".rstrip())
    print(f"         repro run {spec.name} --json - --set <param>=<value>")
    return 0


def _cmd_audit_verify(args: argparse.Namespace) -> int:
    """Verify (and optionally recover) an HMAC-chained audit log."""
    from repro.core.auditlog import AuditLog

    try:
        log = AuditLog.load(args.path, key_seed=args.key_seed)
    except OSError as exc:
        print(f"repro audit-verify: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    report = log.verify_all()
    print(report.summary())
    if report.ok:
        return 0
    if not args.recover:
        return 1
    recovery = log.rollback()
    print(recovery.summary())
    confirm = log.verify_all()
    print(confirm.summary())
    return 0 if confirm.ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LiFTinG: Lightweight Freerider-Tracking in Gossip (MIDDLEWARE 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Generic registry surface.  ``run`` is dispatched before argparse
    # (its flags depend on the chosen scenario); the entry here only
    # documents it in ``repro --help``.
    sub.add_parser(
        "run",
        help="run any registered scenario: repro run <scenario> [--set k=v ...]",
        add_help=False,
    )
    list_parser = sub.add_parser("list", help="list the registered scenarios")
    list_parser.add_argument("--tag", default=None, help="filter by tag")
    list_parser.set_defaults(handler=_cmd_list)
    describe = sub.add_parser(
        "describe", help="show a scenario's parameters and defaults"
    )
    describe.add_argument("scenario", help="registered scenario name")
    describe.set_defaults(handler=_cmd_describe)
    audit = sub.add_parser(
        "audit-verify",
        help="verify a tamper-evident audit log (exit 1 when the chain is broken)",
    )
    audit.add_argument(
        "path", help="JSONL audit-log file (detect --set plane=live --set audit_log=PATH)"
    )
    audit.add_argument(
        "--key-seed",
        default="lifting-audit",
        help="seed of the HMAC key the log was written with",
    )
    audit.add_argument(
        "--recover",
        action="store_true",
        help="on a broken chain, roll back to the last consistent snapshot "
        "(rewrites the file; exit 0 when the recovered chain verifies)",
    )
    audit.set_defaults(handler=_cmd_audit_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "run":
        return _cmd_run(argv[1:])
    args = _build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
