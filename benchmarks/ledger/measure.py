"""The measuring instrument: clocks, fork-replay, spans, canary, digests.

Interference on a small shared VM is additive and bursty, so every
timing the ledger reports is the *minimum* over repetitions of
bit-identical work; the median and quartiles of the same repetitions go
into the run record beside it.  Only the standard library is imported
here: the program under test is imported by the workloads, on the
set-up clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence

from benchmarks.ledger import spec

#: the checkout root (two levels above this package).
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(samples: Sequence[float]) -> Dict[str, object]:
    """min / median / quartiles of one metric's repetitions, raw kept."""
    values = [float(v) for v in samples]
    out: Dict[str, object] = {"n": len(values), "samples": values}
    if values:
        out["min"] = min(values)
        out["median"] = statistics.median(values)
        if len(values) >= 2:
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            out["iqr"] = q3 - q1
    return out


def lower_quartile(values: Sequence[float]) -> float:
    """First quartile, never below the minimum: what the quieter repetitions read."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def digest(payload: object) -> str:
    """SHA-256 of a canonical JSON rendering (information, not a gate)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Canary:
    """A fixed pure-Python loop sampled between repetitions.

    Its work never changes, so ``median / min`` of its CPU time is how
    noisy the host was while this run measured (1.0 = silent).
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        start = time.process_time()
        acc = 0
        for i in range(spec.CANARY_LOOPS):
            acc += i & 7
        self.samples.append(time.process_time() - start)

    def noise_ratio(self) -> float:
        if not self.samples:
            return 0.0
        return statistics.median(self.samples) / min(self.samples)


class Spans:
    """In-memory span log: ``{name, start, end, parent, workload}`` rows.

    Recorded by the harness around its own calls into the program, kept
    in memory, written once with the run record.  Disabled (a no-op)
    when tracing is off, so end-to-end numbers never pay for it.
    """

    def __init__(self, workload: str, enabled: bool) -> None:
        self.workload = workload
        self.enabled = enabled
        self.rows: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the block; yields the span's row index (None when disabled)."""
        if not self.enabled:
            yield None
            return
        index = len(self.rows)
        self.rows.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        })
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.rows[index]["end"] = time.perf_counter()


def fork_call(fn: Callable[[], object]) -> object:
    """Run ``fn()`` in a forked child and return its JSON-able result.

    The child inherits the parent's whole heap copy-on-write, so N
    calls of the same ``fn`` replay bit-identical work from bit-identical
    state — the fork-replay that makes best-of-N meaningful.  Children
    run one at a time and are always reaped before this returns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            payload = json.dumps(fn()).encode("utf-8")
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(payload)
            status = 0
        except BaseException:  # report, then leave without unwinding the parent's stack
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _pid, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"forked repetition failed (wait status {status})")
    return json.loads(data)


def repeat_until(
    deadline: float, min_reps: int, max_reps: int, once: Callable[[], object],
    between: Optional[Callable[[], None]] = None,
) -> List[object]:
    """Call ``once`` until ``perf_counter()`` passes ``deadline`` (within
    the repetition bounds); ``between`` runs after each call."""
    results: List[object] = []
    while len(results) < max_reps and (
        len(results) < min_reps or time.perf_counter() < deadline
    ):
        results.append(once())
        if between is not None:
            between()
    return results


def setup_samples(workload: str, t0: float, samples: int) -> List[float]:
    """Set-up CPU seconds of an import-dominated workload: this process's
    own (the clock started at ``t0``, before anything was imported), then
    ``samples - 1`` fresh interpreters, because an interpreter imports once."""
    out = [time.process_time() - t0]
    for _ in range(samples - 1):
        done = subprocess.run(
            [sys.executable, "-m", "benchmarks.ledger", "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out
