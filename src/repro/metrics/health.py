"""Stream health: the metric of Figure 1.

A node "views a clear stream at lag L" when it can play the stream
delayed by ``L`` seconds without visible glitches — operationally, when
at least a ``coverage`` fraction (99 % by default) of the chunks
created during the measurement window reached it within ``L`` seconds
of their creation.  The curve "fraction of nodes viewing a clear stream
vs stream lag" is the CDF of the per-node *required lag*: the
``coverage``-quantile of its chunk delays, with missing chunks counted
as infinite delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.gossip.chunks import StreamSource
from repro.util.validation import require


def node_required_lag(
    node,
    source: StreamSource,
    *,
    coverage: float = 0.99,
    window: Tuple[float, float] = None,
) -> float:
    """The smallest lag at which ``node`` views a clear stream.

    ``window`` restricts to chunks created in ``[t0, t1)`` (excluding
    the cold-start transient and the chunks still in flight at the end
    of the run).  Returns ``inf`` when the node missed more than
    ``1 - coverage`` of the chunks outright.
    """
    require(0.0 < coverage <= 1.0, "coverage must be in (0, 1]")
    delays: List[float] = []
    for chunk in source.chunks:
        if window is not None and not (window[0] <= chunk.created_at < window[1]):
            continue
        if chunk.chunk_id in node.store:
            delays.append(node.store.received_at(chunk.chunk_id) - chunk.created_at)
        else:
            delays.append(math.inf)
    if not delays:
        return math.inf
    delays.sort()
    index = min(len(delays) - 1, max(0, math.ceil(coverage * len(delays)) - 1))
    return delays[index]


@dataclass
class HealthReport:
    """The health curve: fraction of nodes clear at each lag."""

    lags: np.ndarray
    fractions: np.ndarray


def health_curve(
    nodes: Iterable,
    source: StreamSource,
    *,
    lags: Sequence[float],
    coverage: float = 0.99,
    window: Tuple[float, float] = None,
) -> HealthReport:
    """Figure 1's curve for a set of nodes, sampled at ``lags`` seconds."""
    lags = np.asarray(lags, dtype=float)
    values = np.array(
        [node_required_lag(node, source, coverage=coverage, window=window) for node in nodes],
        dtype=float,
    )
    fractions = (
        np.array([float(np.mean(values <= lag)) for lag in lags])
        if values.size
        else np.zeros_like(lags)
    )
    return HealthReport(lags=lags, fractions=fractions)


def delivery_ratio(nodes: Iterable, chunk_ids: Sequence[int]) -> float:
    """Mean fraction of ``chunk_ids`` delivered, across ``nodes``."""
    nodes = list(nodes)
    if not chunk_ids or not nodes:
        return 0.0
    ratios = [
        sum(1 for c in chunk_ids if c in node.store) / len(chunk_ids) for node in nodes
    ]
    return sum(ratios) / len(ratios)
