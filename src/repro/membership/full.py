"""Full-membership directory with uniform sampling.

Keeps the alive set as an array with O(1) swap-remove, and samples
``count`` distinct partners by a *virtual* partial Fisher–Yates: the
swaps land in a per-call position -> node map, never in the array, so
the directory is shared by every node without copies and read-only
while sampling — O(count) per call regardless of system size, which
matters when every node samples every 500 ms.

The reverse index (node -> position in the alive array) is a dense list
indexed by node id (-1 == absent): membership probes on the sampling hot
path are a list index instead of a dict hash, and the index costs one
machine int per id.  Ids entering the directory (constructor, ``add``)
must therefore pass :func:`~repro.util.validation.require_node_id`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro.membership.base import NodeId, PeerSampler
from repro.util.validation import require, require_node_id


class FullMembership(PeerSampler):
    """Uniform sampling over an explicitly known node population.

    >>> import numpy as np
    >>> fm = FullMembership(np.random.default_rng(0), range(10))
    >>> partners = fm.sample(caller=3, count=4)
    >>> len(partners) == 4 and 3 not in partners and len(set(partners)) == 4
    True
    """

    def __init__(self, rng: np.random.Generator, nodes: Iterable[NodeId]) -> None:
        self._rng = rng
        self._nodes: List[NodeId] = [require_node_id(node) for node in nodes]
        require(len(set(self._nodes)) == len(self._nodes), "duplicate node ids")
        pos = [-1] * (max(self._nodes, default=-1) + 1)
        for i, node in enumerate(self._nodes):
            pos[node] = i
        self._pos: List[int] = pos

    def add(self, node: NodeId) -> None:
        """Add a (re)joining node."""
        node = require_node_id(node)
        pos = self._pos
        if node >= len(pos):
            pos.extend([-1] * (node + 1 - len(pos)))
        if pos[node] >= 0:
            return
        pos[node] = len(self._nodes)
        self._nodes.append(node)

    def remove(self, node: NodeId) -> None:
        """Swap-remove ``node`` from the alive set (no-op if absent)."""
        if not self.contains(node):
            return
        pos_list = self._pos
        pos = pos_list[node]
        pos_list[node] = -1
        last = self._nodes.pop()
        if last != node:
            self._nodes[pos] = last
            pos_list[last] = pos

    def alive_nodes(self) -> Sequence[NodeId]:
        return tuple(self._nodes)

    def contains(self, node: NodeId) -> bool:
        try:
            return node >= 0 and self._pos[node] >= 0
        except (IndexError, TypeError):
            return False

    def _readmit(self, node: NodeId) -> bool:
        self.add(node)
        return True

    def __len__(self) -> int:
        return len(self._nodes)

    def sample(self, caller: NodeId, count: int) -> List[NodeId]:
        """``count`` distinct uniform partners, excluding ``caller``.

        A partial Fisher–Yates over the alive array, done virtually:
        ``moved`` holds what a swap would have written to a position, so
        the draws (``rng.integers(0, limit)`` per step) and the picks are
        those of swapping in place, and the shared array is only read.
        A ``caller`` that is not a member (an id past the table, a
        non-int) shrinks nothing.
        """
        if count < 0:
            require(False, "count must be >= 0, got %d", count)
        nodes = self._nodes
        limit = len(nodes)
        try:  # ``limit`` less one if ``contains(caller)``, inlined
            take = limit - 1 if caller >= 0 and self._pos[caller] >= 0 else limit
        except (IndexError, TypeError):
            take = limit
        if count < take:
            take = count
        if take <= 0:
            return []

        picked: List[NodeId] = [None] * take
        moved = {}
        got = 0
        rng = self._rng
        while got < take and limit > 0:
            j = int(rng.integers(0, limit))
            limit -= 1
            candidate = moved[j] if j in moved else nodes[j]
            moved[j] = moved[limit] if limit in moved else nodes[limit]
            if candidate != caller:
                picked[got] = candidate
                got += 1
        if got < take:
            del picked[got:]
        return picked
