"""Which package may import which, read from the source with ``ast``.

The simulator must not pay for the live plane: only ``runtime/``,
``loadgen/`` and ``wire_codec.py`` import the event loop, sockets, the
process pool or each other at module level.  Elsewhere such an import
sits inside the function that needs it (the live scenarios in
``scenarios/builtin.py``, the pool branch of ``scenarios/parallel.py``).

The protocol core imports neither plane, at any level: it reaches its
host through one contract that both planes satisfy.  And the live plane
imports no simulator module.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: what a sim-plane process must never load at import time.
LIVE_PLANE = (
    "asyncio",
    "selectors",
    "socket",
    "ssl",
    "multiprocessing",
    "concurrent",
    "repro.runtime",
    "repro.loadgen",
    "repro.wire_codec",
)


#: the protocol core: what runs the same on either plane.
CORE = (
    "wire.py",
    "config.py",
    "deployment.py",
    "core",
    "gossip",
    "membership",
    "nodes",
    "adversary",
)
SIM_PLANE = ("repro.sim",)
BOTH_PLANES = ("repro.sim", "repro.runtime")


def _is_in(module: str, packages) -> bool:
    return any(module == name or module.startswith(name + ".") for name in packages)


def _module_level_imports(tree: ast.AST, *, nested: bool = False):
    """``(line, module)`` of every import that runs when the module is
    imported: everything but what sits inside a function body (with
    ``nested``, that too)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if not nested and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield child.lineno, alias.name
            elif isinstance(child, ast.ImportFrom) and child.module:
                yield child.lineno, child.module
                for alias in child.names:
                    yield child.lineno, f"{child.module}.{alias.name}"
            stack.append(child)


def _is_live_plane_file(path: Path) -> bool:
    relative = path.relative_to(SRC).parts
    return relative[0] in ("runtime", "loadgen") or relative == ("wire_codec.py",)


def _offenders(files, banned):
    """``file:line imports module`` for each import, at any level, of a
    module under one of the ``banned`` packages."""
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(SRC)}:{line} imports {module}"
            for line, module in _module_level_imports(tree, nested=True)
            if _is_in(module, banned)
        ]
    return found


class TestImportGraph:
    def test_the_scan_sees_the_live_plane_import_itself(self):
        # Guards the guard: the live plane's own modules are exempt, not invisible.
        tree = ast.parse((SRC / "runtime" / "transport.py").read_text())
        assert any(_is_in(module, LIVE_PLANE) for _line, module in _module_level_imports(tree))

    def test_no_module_outside_the_live_plane_imports_it_at_module_level(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if _is_live_plane_file(path):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            offenders += [
                f"{path.relative_to(SRC)}:{line} imports {module}"
                for line, module in _module_level_imports(tree)
                if _is_in(module, LIVE_PLANE)
            ]
        assert offenders == []

    def test_the_scan_sees_an_import_inside_a_function(self):
        # Guards the guard: the live scenarios import the runtime lazily.
        assert _offenders([SRC / "scenarios" / "builtin.py"], ("repro.runtime",)) != []

    def test_the_protocol_core_imports_neither_plane(self):
        files = sorted(
            path
            for path in SRC.rglob("*.py")
            if path.relative_to(SRC).parts[0] in CORE
        )
        assert len(files) > 20
        assert _offenders(files, BOTH_PLANES) == []

    def test_the_live_plane_imports_no_simulator_module(self):
        files = sorted(path for path in SRC.rglob("*.py") if _is_live_plane_file(path))
        assert len(files) > 5
        assert _offenders(files, SIM_PLANE) == []
