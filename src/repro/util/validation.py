"""Small validation helpers used across the code base.

The simulator and the protocol implementation validate their inputs
eagerly: a mis-configured experiment should fail at construction time
with a clear message, not after minutes of simulation.
"""

from __future__ import annotations

import operator
from typing import Any

#: Node ids index dense per-node tables (the network's receiver table,
#: the membership directory's reverse index), so one stray huge id must
#: not allocate gigabytes: valid ids are ``0 <= id < NODE_ID_LIMIT``.
NODE_ID_LIMIT = 1 << 20


def require(condition: bool, message: str, *args: Any) -> None:
    """Raise :class:`ValueError` with ``message % args`` unless ``condition``.

    Using ``%``-style lazy formatting keeps the hot paths cheap when the
    condition holds (the common case).

    >>> require(1 + 1 == 2, "math is broken")
    >>> require(False, "bad fanout %d", -3)
    Traceback (most recent call last):
        ...
    ValueError: bad fanout -3
    """
    if not condition:
        raise ValueError(message % args if args else message)


def require_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` and return it."""
    require(0.0 <= value <= 1.0, "%s must be a probability in [0, 1], got %r", name, value)
    return float(value)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    require(value > 0, "%s must be > 0, got %r", name, value)
    return value


def require_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 and return it."""
    require(value >= 0, "%s must be >= 0, got %r", name, value)
    return value


def require_int(value: Any, name: str, *, minimum: int) -> int:
    """Validate an integer ``>= minimum`` and return it as ``int``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    require(number >= minimum, "%s must be >= %d, got %r", name, minimum, value)
    return number


def require_node_id(value: Any, *, allow_source: bool = False) -> int:
    """Validate a node id at a registration boundary; return it as ``int``.

    A node id is anything :func:`operator.index` accepts (``int``, numpy
    integers) in ``[0, NODE_ID_LIMIT)``.  The stream source's id -1
    (``repro.gossip.chunks.SOURCE_ID``) passes only where the caller
    registers sources too and says so.

    >>> require_node_id(7), require_node_id(-1, allow_source=True)
    (7, -1)
    >>> require_node_id(1.5)
    Traceback (most recent call last):
        ...
    ValueError: node id must be an integer, got 1.5
    """
    try:
        node_id = operator.index(value)
    except TypeError:
        raise ValueError(f"node id must be an integer, got {value!r}") from None
    lowest = -1 if allow_source else 0
    in_range = lowest <= node_id < NODE_ID_LIMIT
    require(in_range, "node id %d out of range [%d, %d)", node_id, lowest, NODE_ID_LIMIT)
    return node_id
