"""Full-membership directory with uniform sampling.

Keeps the alive set as an array with O(1) swap-remove, and samples
``count`` distinct partners by partial Fisher–Yates — O(count) per call
regardless of system size, which matters when every node samples every
500 ms.

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

        Uses a partial Fisher–Yates over the alive array; the array is
        restored afterwards so the directory stays shared between all
        nodes without copies.
        """
        require(count >= 0, "count must be >= 0, got %d", count)
        nodes = self._nodes
        population = len(nodes) - (1 if self.contains(caller) else 0)
        take = min(count, population)
        if take <= 0:
            return []

        picked: List[NodeId] = []
        swapped: List[tuple] = []
        limit = len(nodes)
        rng = self._rng
        while len(picked) < take and limit > 0:
            j = int(rng.integers(0, limit))
            candidate = nodes[j]
            limit -= 1
            nodes[j], nodes[limit] = nodes[limit], nodes[j]
            swapped.append((j, limit))
            if candidate != caller:
                picked.append(candidate)
        # Undo the swaps so that the shared array ordering (and therefore
        # other callers' sampling) is unaffected by this call.
        for j, k in reversed(swapped):
            nodes[j], nodes[k] = nodes[k], nodes[j]
        return picked
