"""The profiling hook behind ``repro run --profile PATH``.

Every perf-focused change to this repo starts from evidence; the flag
funnels that evidence into a file so the next optimisation does not
have to rediscover the hot paths.  See the "Profiling recipe" section
of ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

#: how many entries each stats table keeps in the dump.
_STATS_LINES = 60


@contextlib.contextmanager
def maybe_profile(path: Optional[str]) -> Iterator[None]:
    """Profile the wrapped block into ``path`` (no-op when falsy).

    The dump contains two sorted tables — cumulative and internal time —
    produced by ``cProfile``/``pstats``.
    """
    if not path:
        yield
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        with open(path, "w") as fh:
            stats = pstats.Stats(profiler, stream=fh)
            stats.sort_stats("cumulative").print_stats(_STATS_LINES)
            stats.sort_stats("tottime").print_stats(_STATS_LINES)
        print(f"profile written to {path}")
