"""The wise (non-colluding) freerider of §6.3.1.

Deviates along the paper's degree of freeriding ``Δ = (δ1, δ2, δ3)``:

* contacts only ``f̂ = (1-δ1)·f`` partners per period;
* silently drops, from its proposals, the chunks received from a
  proportion ``δ2`` of its servers (whole servers at a time — the
  paper's footnote 1: removing chunks from the fewest sources
  minimises blame);
* serves each requested chunk only with probability ``1-δ3``.

Optionally stretches its gossip period by an integer factor
(§4.1(iv)).  The freerider still *requests and consumes* everything —
that is the point of freeriding — and it still runs verifications
against others (they cost almost nothing and deviating there brings no
bandwidth gain).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import FreeriderDegree
from repro.nodes.behavior import Behavior, ChunkId, NodeId


class FreeriderBehavior(Behavior):
    """Implements the Δ-degree freerider."""

    __slots__ = ("degree", "_stride")

    name = "freerider"

    def __init__(self, degree: FreeriderDegree, period_stride: int = 1) -> None:
        super().__init__()
        self.degree = degree
        self._stride = max(1, int(period_stride))

    def select_partners(self, fanout: int) -> List[NodeId]:
        effective = self.degree.effective_fanout(fanout)
        if effective == 0:
            return []
        return self.node.sampler.sample(self.node.node_id, effective)

    def propose_filter(
        self, by_server: Dict[NodeId, List[ChunkId]]
    ) -> Dict[NodeId, List[ChunkId]]:
        if self.degree.delta2 <= 0.0 or not by_server:
            return by_server
        rng = self.node.rng
        kept: Dict[NodeId, List[ChunkId]] = {}
        for server, chunk_ids in by_server.items():
            if rng.random() >= self.degree.delta2:
                kept[server] = chunk_ids
        return kept

    def serve_filter(self, requested: List[ChunkId]) -> List[ChunkId]:
        if self.degree.delta3 <= 0.0 or not requested:
            return requested
        rng = self.node.rng
        return [c for c in requested if rng.random() >= self.degree.delta3]

    def period_stride(self) -> int:
        return self._stride

    def __repr__(self) -> str:
        return f"FreeriderBehavior({self.degree}, stride={self._stride})"
