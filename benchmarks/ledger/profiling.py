"""cProfile over the timed window, bucketed into this repo's layers.

A function belongs to a layer when its file does (``spec.LAYER_PREFIXES``
for ``repro.*``, ``spec.EVENTLOOP_MODULES`` for the asyncio plane, the
ledger's own files count as ``harness``).  Everything else — built-ins,
numpy, the rest of the stdlib — is *charged to whoever called it*,
through the profile's caller edges, so a layer pays for the C time it
causes and ``other`` stays small.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import time
from typing import Callable, Dict, Optional, Tuple

from benchmarks.ledger import spec

_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + "repro" + os.sep

Func = Tuple[str, int, str]


def layer_of_file(filename: str) -> Optional[str]:
    """Layer owning ``filename``, or None when callers are charged."""
    if filename.startswith(_LEDGER_DIR):
        return "harness"
    at = filename.rfind(_REPRO_MARK)
    if at >= 0 and filename.endswith(".py"):
        dotted = filename[at + len(_REPRO_MARK):-3].replace(os.sep, ".")
        return spec.layer_of_module(dotted)
    parts = filename.split(os.sep)
    stem = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if stem in spec.EVENTLOOP_MODULES or (len(parts) > 1 and parts[-2] in spec.EVENTLOOP_MODULES):
        return "eventloop"
    return None


def profiled(fn: Callable[[], object], cpu_clock: bool) -> Tuple[object, cProfile.Profile]:
    """Run ``fn()`` under cProfile; returns its result and the profile.

    ``cpu_clock`` times with ``process_time`` so a loop that sleeps in
    ``epoll`` is not billed for the wait (the live plane); the sim plane
    never sleeps and keeps cProfile's cheaper default clock.
    """
    profile = cProfile.Profile(time.process_time) if cpu_clock else cProfile.Profile()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    return result, profile


def bucket(profile: cProfile.Profile) -> Dict[str, object]:
    """``{"self_s": {layer: s}, "calls": {layer: n}, "total_s", "total_calls"}``."""
    stats = pstats.Stats(profile).stats  # func -> (cc, nc, tt, ct, callers)
    owner_memo: Dict[Func, Dict[str, float]] = {}
    in_progress = set()

    def owners(func: Func) -> Dict[str, float]:
        """Layer distribution (weights sum to 1) that pays for ``func``."""
        known = owner_memo.get(func)
        if known is not None:
            return known
        layer = layer_of_file(func[0])
        if layer is not None:
            result = {layer: 1.0}
        elif func in in_progress:
            return {}  # a call cycle among unowned functions: skip this edge
        else:
            in_progress.add(func)
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            # weight an edge by cumulative time, falling back to calls
            by_time = sum(edge[3] for edge in callers.values()) > 0.0
            result = {}
            for caller, edge in callers.items():
                weight = edge[3] if by_time else edge[0]
                for name, part in owners(caller).items():
                    result[name] = result.get(name, 0.0) + weight * part
            in_progress.discard(func)
            total = sum(result.values())
            result = {n: w / total for n, w in result.items()} if total > 0.0 else {"other": 1.0}
        owner_memo[func] = result
        return result

    self_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    total_s = 0.0
    total_calls = 0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        total_s += tt
        total_calls += nc
        layer = layer_of_file(func[0])
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tt
            calls[layer] = calls.get(layer, 0.0) + nc
            continue
        # charged to callers, edge by edge (edge = (nc, cc, tt, ct))
        edge_tt = sum(e[2] for e in callers.values())
        edge_nc = sum(e[0] for e in callers.values())
        for caller, edge in callers.items():
            for name, part in (owners(caller) or {"other": 1.0}).items():
                self_s[name] = self_s.get(name, 0.0) + edge[2] * part
                calls[name] = calls.get(name, 0.0) + edge[0] * part
        # a profile root (no caller edge) or rounding remainder
        self_s["other"] = self_s.get("other", 0.0) + (tt - edge_tt)
        calls["other"] = calls.get("other", 0.0) + (nc - edge_nc)
    return {"self_s": self_s, "calls": calls, "total_s": total_s, "total_calls": total_calls}


def layer_metrics(
    buckets: Dict[str, object], per_unit: float, call_metric: str, call_layers
) -> Dict[str, float]:
    """``<layer>.self_cpu_share`` for every layer and ``<layer>.<call_metric>``
    for ``call_layers``; undeclared buckets fold into ``other``."""
    self_s = dict(buckets["self_s"])
    calls = dict(buckets["calls"])
    for table in (self_s, calls):
        stray = [name for name in table if name not in spec.ALL_LAYERS]
        for name in stray:
            table["other"] = table.get("other", 0.0) + table.pop(name)
    total = float(buckets["total_s"]) or 1.0
    out: Dict[str, float] = {}
    for layer in spec.ALL_LAYERS:
        out[f"{layer}.self_cpu_share"] = self_s.get(layer, 0.0) / total
    for layer in call_layers:
        out[f"{layer}.{call_metric}"] = calls.get(layer, 0.0) / per_unit
    return out


def missing_layers(package_dir: str) -> list:
    """Declared ``repro`` layers that no file under ``package_dir`` maps to
    any more (they will read 0; the caller warns instead of crashing)."""
    present = set()
    for root, _dirs, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                layer = layer_of_file(os.path.join(root, name))
                if layer is not None:
                    present.add(layer)
    declared = {layer for _prefix, layer in spec.LAYER_PREFIXES}
    return sorted(declared - present)
