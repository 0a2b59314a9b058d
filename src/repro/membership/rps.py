"""Gossip-based random peer sampling (view shuffling).

A decentralised alternative to the full-membership directory, in the
style of Jelasity et al., "Gossip-based Peer Sampling" (TOCS 2007)
[13]: each node keeps a small partial *view* of ``(peer, age)`` entries;
periodically it picks the oldest peer in its view, exchanges half of its
view with it, and merges the answer, evicting the oldest entries.

The service is driven by an explicit :meth:`step` — one shuffle round
for every node — so it can run under the discrete-event simulator, the
Monte-Carlo engine, or standalone.  Its samples are *close to* uniform;
the residual bias is exactly what LiFTinG's entropy threshold ``γ`` must
tolerate (§5.3: "Since the peer selection service underlying the gossip
protocol may not be perfect, the threshold must be tolerant to small
deviation"), and the peer-sampling ablation benchmark quantifies it.

Two engines implement the same protocol:

* **vectorized** (the default): views live in preallocated numpy id/age
  matrices (``-1`` marks an empty slot).  Aging is batched — one
  ``ages += 1`` pass over all alive views per round instead of a
  per-entry dict update per shuffle — oldest-peer selection is an
  ``argmax`` over the view row, and merge-evict is a single
  sort/dedupe/partition pass instead of per-entry dict writes with a
  repeated linear-scan eviction.  Node ids must be non-negative ints.
* **scalar** (``vectorized=False``): the original per-node dict views,
  kept as the executable reference; the uniformity regression test
  (``tests/membership/test_rps.py``) pins the vectorized engine's
  sampling statistics against it.

The engines make the same *kinds* of RNG draws but not the same
sequence, and batched aging shifts when mid-round merged entries age,
so individual runs differ; their stationary view statistics are
equivalent (that is what the regression test asserts).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.membership.base import NodeId, PeerSampler
from repro.util.validation import require, require_node_id


class _View:
    """A node's partial view: peer -> age, bounded size (scalar engine)."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        self.entries: Dict[NodeId, int] = {}

    def peers(self) -> List[NodeId]:
        return list(self.entries.keys())

    def age_all(self) -> None:
        # One bulk rebuild instead of a per-key ``entries[peer] += 1``
        # loop: a fresh dict built in C from a comprehension is cheaper
        # than len(entries) hash-probe read-modify-writes.
        self.entries = {peer: age + 1 for peer, age in self.entries.items()}

    def oldest(self) -> NodeId:
        return max(self.entries.items(), key=lambda kv: (kv[1], kv[0]))[0]

    def merge(self, incoming: Iterable[Tuple[NodeId, int]], owner: NodeId, size: int) -> None:
        """Merge entries, keep freshest per peer, evict oldest overflow."""
        for peer, age in incoming:
            if peer == owner:
                continue
            current = self.entries.get(peer)
            if current is None or age < current:
                self.entries[peer] = age
        while len(self.entries) > size:
            victim = self.oldest()
            del self.entries[victim]


class GossipPeerSampling(PeerSampler):
    """A shuffling peer-sampling service over a node population.

    Parameters
    ----------
    rng:
        Randomness source for bootstrap, shuffle-partner and sampling.
    nodes:
        Initial population.
    view_size:
        Entries per view (``c`` in [13]; 2–3× fanout is typical).
    shuffle_length:
        Entries exchanged per shuffle (defaults to ``view_size // 2``).
    vectorized:
        Use the numpy array engine (default).  Requires non-negative
        integer node ids; pass False for the scalar dict reference.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        nodes: Iterable[NodeId],
        view_size: int = 20,
        shuffle_length: int = None,
        vectorized: bool = True,
    ) -> None:
        self._rng = rng
        self._nodes: List[NodeId] = list(nodes)
        require(len(self._nodes) >= 2, "need at least 2 nodes")
        require(view_size >= 2, "view_size must be >= 2, got %d", view_size)
        self.view_size = min(view_size, len(self._nodes) - 1)
        self.shuffle_length = (
            max(1, self.view_size // 2) if shuffle_length is None else shuffle_length
        )
        require(
            1 <= self.shuffle_length <= self.view_size,
            "shuffle_length must be in [1, view_size]",
        )
        self.vectorized = vectorized
        self._alive: Dict[NodeId, bool] = {node: True for node in self._nodes}
        self.rounds = 0
        if vectorized:
            # The view matrices hold ids as int64 with -1 == empty slot.
            self._nodes = [require_node_id(node) for node in self._nodes]
            self._row: Dict[NodeId, int] = {n: i for i, n in enumerate(self._nodes)}
            count = len(self._nodes)
            #: view matrices; ids == -1 marks an empty slot.
            self._ids = np.full((count, self.view_size), -1, dtype=np.int64)
            self._ages = np.zeros((count, self.view_size), dtype=np.int64)
            self._alive_rows = np.ones(count, dtype=bool)
            #: id-key multiplier for (age, id) lexicographic argmax.
            self._id_bound = int(max(self._nodes)) + 1
            self._bootstrap_vectorized()
        else:
            self._views: Dict[NodeId, _View] = {}
            self._bootstrap()

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Give every node a random initial view (tracker-style join)."""
        population = np.array(self._nodes)
        for node in self._nodes:
            view = _View()
            while len(view.entries) < self.view_size:
                peer = int(population[self._rng.integers(0, len(population))])
                if peer != node:
                    view.entries[peer] = 0
            self._views[node] = view

    def _bootstrap_vectorized(self) -> None:
        """Same tracker-style join, filling the id matrix row by row."""
        population = np.array(self._nodes)
        size = self.view_size
        for row, node in enumerate(self._nodes):
            chosen: Dict[NodeId, None] = {}
            while len(chosen) < size:
                peer = int(population[self._rng.integers(0, len(population))])
                if peer != node:
                    chosen[peer] = None
            self._ids[row] = np.fromiter(chosen.keys(), dtype=np.int64, count=size)

    # ------------------------------------------------------------------
    # protocol rounds
    # ------------------------------------------------------------------
    def step(self, rounds: int = 1) -> None:
        """Run ``rounds`` shuffle rounds; in each, every alive node
        initiates one exchange with the oldest peer of its view."""
        for _ in range(rounds):
            self.rounds += 1
            order = [n for n in self._nodes if self._alive[n]]
            self._rng.shuffle(order)
            if self.vectorized:
                # Batched aging: every alive node's whole view ages once
                # per round in a single matrix pass (the scalar engine
                # ages per shuffle; see the module docstring).
                rows = self._alive_rows
                self._ages[rows] += self._ids[rows] >= 0
                for node in order:
                    self._shuffle_once_vectorized(node)
            else:
                for node in order:
                    self._shuffle_once(node)

    # ------------------------------------------------------------------
    # scalar engine
    # ------------------------------------------------------------------
    def _shuffle_once(self, initiator: NodeId) -> None:
        view = self._views[initiator]
        view.age_all()
        if not view.entries:
            return
        partner = view.oldest()
        if not self._alive.get(partner, False):
            # Dead partner: drop it — the healing behaviour of [13].
            del view.entries[partner]
            if not view.entries:
                return
            partner = view.oldest()
            if not self._alive.get(partner, False):
                return
        partner_view = self._views[partner]

        to_send = self._select_exchange(view, exclude=partner)
        to_reply = self._select_exchange(partner_view, exclude=initiator)

        # The initiator advertises itself with age 0 (the "push" part).
        partner_view.merge(
            list(to_send) + [(initiator, 0)], owner=partner, size=self.view_size
        )
        del view.entries[partner]
        view.merge(list(to_reply) + [(partner, 0)], owner=initiator, size=self.view_size)

    def _select_exchange(self, view: _View, exclude: NodeId) -> List[Tuple[NodeId, int]]:
        candidates = [(p, a) for p, a in view.entries.items() if p != exclude]
        if len(candidates) <= self.shuffle_length:
            return candidates
        idx = self._rng.choice(len(candidates), size=self.shuffle_length, replace=False)
        return [candidates[int(i)] for i in idx]

    # ------------------------------------------------------------------
    # vectorized engine
    # ------------------------------------------------------------------
    def _oldest_slot(self, row: int) -> int:
        """Slot index of the (age, id)-max entry of ``row`` (-1: empty)."""
        ids = self._ids[row]
        valid = ids >= 0
        if not valid.any():
            return -1
        key = self._ages[row] * self._id_bound + ids
        key = np.where(valid, key, -1)
        return int(np.argmax(key))

    def _shuffle_once_vectorized(self, initiator: NodeId) -> None:
        row = self._row[initiator]
        slot = self._oldest_slot(row)
        if slot < 0:
            return
        ids_row = self._ids[row]
        partner = int(ids_row[slot])
        if not self._alive.get(partner, False):
            ids_row[slot] = -1  # healing: drop the dead entry
            slot = self._oldest_slot(row)
            if slot < 0:
                return
            partner = int(ids_row[slot])
            if not self._alive.get(partner, False):
                return
        partner_row = self._row[partner]

        send_ids, send_ages = self._select_exchange_vectorized(row, exclude=partner)
        reply_ids, reply_ages = self._select_exchange_vectorized(
            partner_row, exclude=initiator
        )

        # The initiator advertises itself with age 0 (the "push" part).
        self._merge_vectorized(
            partner_row,
            np.append(send_ids, initiator),
            np.append(send_ages, 0),
            owner=partner,
        )
        ids_row[slot] = -1  # hand the partner entry over before merging
        self._merge_vectorized(
            row,
            np.append(reply_ids, partner),
            np.append(reply_ages, 0),
            owner=initiator,
        )

    def _select_exchange_vectorized(self, row: int, exclude: NodeId):
        ids = self._ids[row]
        mask = (ids >= 0) & (ids != exclude)
        candidate_slots = np.flatnonzero(mask)
        if candidate_slots.size > self.shuffle_length:
            picks = self._rng.choice(
                candidate_slots.size, size=self.shuffle_length, replace=False
            )
            candidate_slots = candidate_slots[picks]
        return ids[candidate_slots], self._ages[row][candidate_slots]

    def _merge_vectorized(self, row: int, incoming_ids, incoming_ages, owner: NodeId) -> None:
        """Merge-evict in one pass: keep the freshest entry per peer,
        then keep the ``view_size`` entries with the smallest (age, id)
        keys — exactly the scalar engine's repeated oldest-eviction,
        collapsed into a single partition."""
        ids_row = self._ids[row]
        ages_row = self._ages[row]
        valid = ids_row >= 0
        all_ids = np.concatenate([ids_row[valid], incoming_ids])
        all_ages = np.concatenate([ages_row[valid], incoming_ages])
        keep = all_ids != owner
        all_ids = all_ids[keep]
        all_ages = all_ages[keep]
        # Freshest per peer: sort by (id, age) and keep each id's first.
        order = np.lexsort((all_ages, all_ids))
        sorted_ids = all_ids[order]
        sorted_ages = all_ages[order]
        first = np.empty(sorted_ids.size, dtype=bool)
        if sorted_ids.size:
            first[0] = True
            first[1:] = sorted_ids[1:] != sorted_ids[:-1]
        unique_ids = sorted_ids[first]
        unique_ages = sorted_ages[first]
        size = self.view_size
        if unique_ids.size > size:
            key = unique_ages * self._id_bound + unique_ids
            keep_idx = np.argpartition(key, size - 1)[:size]
            unique_ids = unique_ids[keep_idx]
            unique_ages = unique_ages[keep_idx]
        count = unique_ids.size
        ids_row[:count] = unique_ids
        ages_row[:count] = unique_ages
        ids_row[count:] = -1
        ages_row[count:] = 0

    # ------------------------------------------------------------------
    # PeerSampler interface
    # ------------------------------------------------------------------
    def sample(self, caller: NodeId, count: int) -> List[NodeId]:
        """Distinct partners drawn from the caller's current view."""
        require(count >= 0, "count must be >= 0, got %d", count)
        if self.vectorized:
            row = self._row.get(caller)
            if row is None:
                return []
            alive = self._alive
            peers = [int(p) for p in self._ids[row] if p >= 0 and alive.get(int(p), False)]
        else:
            view = self._views.get(caller)
            if view is None:
                return []
            peers = [p for p in view.peers() if self._alive.get(p, False)]
        if not peers:
            return []
        take = min(count, len(peers))
        idx = self._rng.choice(len(peers), size=take, replace=False)
        return [peers[int(i)] for i in idx]

    def remove(self, node: NodeId) -> None:
        if node in self._alive:
            self._alive[node] = False
            if self.vectorized:
                self._alive_rows[self._row[node]] = False

    def contains(self, node: NodeId) -> bool:
        return self._alive.get(node, False)

    def _readmit(self, node: NodeId) -> bool:
        # A decentralised service only knows nodes it has bootstrapped;
        # strangers must join through the tracker, not via readmit.
        if node not in self._alive:
            return False
        self._alive[node] = True
        if self.vectorized:
            self._alive_rows[self._row[node]] = True
        return True

    def alive_nodes(self) -> Sequence[NodeId]:
        return tuple(n for n in self._nodes if self._alive[n])

    def view_of(self, node: NodeId) -> List[NodeId]:
        """The current partial view of ``node`` (for tests/metrics)."""
        if self.vectorized:
            return [int(p) for p in self._ids[self._row[node]] if p >= 0]
        return self._views[node].peers()

    def indegree_distribution(self) -> Dict[NodeId, int]:
        """How many views each node appears in — uniformity diagnostic."""
        counts: Dict[NodeId, int] = {node: 0 for node in self._nodes}
        if self.vectorized:
            alive_ids = self._ids[self._alive_rows]
            present = alive_ids[alive_ids >= 0]
            binned = np.bincount(present.astype(np.intp))
            for node in np.flatnonzero(binned):
                node = int(node)
                if node in counts:
                    counts[node] = int(binned[node])
            return counts
        for owner, view in self._views.items():
            if not self._alive[owner]:
                continue
            for peer in view.entries:
                if peer in counts:
                    counts[peer] += 1
        return counts
