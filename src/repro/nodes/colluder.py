"""Colluding freeriders (§4.1(iii), §5.2's cover-ups, Figure 8b's MITM).

A coalition shares a member set; each member

* biases partner selection: with probability ``p_m`` a slot goes to a
  uniformly random co-colluder, otherwise to the ambient sampler
  (§6.3.2's model — the entropy-maximising strategy is uniform within
  each class);
* covers co-colluders up: answers confirm requests about them
  positively, acknowledges their history polls, never blames them;
* optionally mounts the **man-in-the-middle** attack: acks name
  co-colluders as the propose partners (who will confirm anything) and
  serves are stamped with a co-colluder's identity, erasing the
  freerider from the verification chain — the attack only local
  history auditing can catch;
* optionally **forges audit histories**, replacing the coalition-heavy
  partner list with uniformly sampled honest nodes to pass the entropy
  check — which the a-posteriori cross-check punishes because the
  honest nodes deny the proposals;
* optionally **launders blame**, an attack the paper does not model:
  each period it grants its co-members a ``launder`` budget of credits
  (negative blames, legitimate compensation traffic), draining their
  accumulated blame at the managers.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

from repro.config import FreeriderDegree
from repro.nodes.behavior import ChunkId, HistorySnapshot, NodeId
from repro.nodes.freerider import FreeriderBehavior


class Coalition:
    """The shared state of a colluding group."""

    def __init__(self, members: Iterable[NodeId]) -> None:
        self.members: Set[NodeId] = set(members)

    def others(self, member: NodeId) -> List[NodeId]:
        """Co-colluders of ``member``."""
        return [m for m in self.members if m != member]

    def __contains__(self, node: NodeId) -> bool:
        return node in self.members

    def __len__(self) -> int:
        return len(self.members)


class ColludingBehavior(FreeriderBehavior):
    """A coalition member; extends the Δ-freerider with cover-ups."""

    __slots__ = (
        "coalition", "bias", "man_in_the_middle", "forge_history", "launder", "credits_sent",
    )

    name = "colluder"

    def __init__(
        self,
        degree: FreeriderDegree,
        coalition: Coalition,
        bias: float = 0.0,
        *,
        man_in_the_middle: bool = False,
        forge_history: bool = False,
        period_stride: int = 1,
        launder: float = 0.0,
    ) -> None:
        super().__init__(degree, period_stride=period_stride)
        self.coalition = coalition
        self.bias = bias
        self.man_in_the_middle = man_in_the_middle
        self.forge_history = forge_history
        #: total credit (negative blame) granted to co-members per period.
        self.launder = launder
        self.credits_sent = 0.0

    # ------------------------------------------------------------------
    # blame laundering
    # ------------------------------------------------------------------
    def on_period_start(self, period: int) -> None:
        if self.launder <= 0.0:
            return
        friends = self.coalition.others(self.node.node_id)
        if not friends:
            return
        credit = self.launder / len(friends)
        for friend in friends:
            # Negative value: rides send_blame's credit path (the
            # should_blame cover-up gate only vets positive blames).
            self.node.send_blame(friend, -credit, "laundered-credit")
            self.credits_sent += credit

    # ------------------------------------------------------------------
    # biased partner selection (§6.3.2's p_m model)
    # ------------------------------------------------------------------
    def select_partners(self, fanout: int) -> List[NodeId]:
        effective = self.degree.effective_fanout(fanout)
        if effective == 0:
            return []
        if self.bias <= 0.0:
            return self.node.sampler.sample(self.node.node_id, effective)
        rng = self.node.rng
        friends = self.coalition.others(self.node.node_id)
        chosen: List[NodeId] = []
        seen: Set[NodeId] = set()
        honest_pool = self.node.sampler.sample(self.node.node_id, effective)
        honest_iter = iter(honest_pool)
        for _slot in range(effective):
            pick = None
            if friends and rng.random() < self.bias:
                pick = friends[int(rng.integers(0, len(friends)))]
            else:
                pick = next(honest_iter, None)
                if pick is None and friends:
                    pick = friends[int(rng.integers(0, len(friends)))]
            if pick is not None and pick not in seen:
                seen.add(pick)
                chosen.append(pick)
        return chosen

    # ------------------------------------------------------------------
    # cover-ups
    # ------------------------------------------------------------------
    def confirm_answer(self, proposer: NodeId, truthful: bool) -> bool:
        if proposer in self.coalition:
            return True
        return truthful

    def should_blame(self, target: NodeId) -> bool:
        return target not in self.coalition

    def poll_acknowledge(self, target: NodeId, truthful: bool) -> bool:
        if target in self.coalition:
            return True
        return truthful

    def poll_confirm_senders(self, target: NodeId, truthful: List[NodeId]) -> List[NodeId]:
        if target in self.coalition and not truthful:
            # Fabricate a plausible-looking log so an empty testimony does
            # not immediately give the coalition away.
            return self.coalition.others(self.node.node_id)[: self.node.gossip.fanout]
        return truthful

    # ------------------------------------------------------------------
    # man-in-the-middle (Figure 8b)
    # ------------------------------------------------------------------
    def ack_partners(self, partners: Tuple[NodeId, ...]) -> Tuple[NodeId, ...]:
        if not self.man_in_the_middle:
            return partners
        friends = self.coalition.others(self.node.node_id)
        if not friends:
            return partners
        rng = self.node.rng
        fanout = self.node.gossip.fanout
        forged = [friends[int(rng.integers(0, len(friends)))] for _ in range(fanout)]
        # Distinct names look more plausible to the verifier.
        return tuple(dict.fromkeys(forged)) or partners

    def serve_origin(self) -> NodeId:
        if not self.man_in_the_middle:
            return self.node.node_id
        friends = self.coalition.others(self.node.node_id)
        if not friends:
            return self.node.node_id
        return friends[int(self.node.rng.integers(0, len(friends)))]

    # ------------------------------------------------------------------
    # audit evasion
    # ------------------------------------------------------------------
    def history_snapshot(self, snapshot: HistorySnapshot) -> HistorySnapshot:
        if not self.forge_history:
            return snapshot
        forged = []
        for period, partners, chunk_ids in snapshot:
            replacements = self.node.sampler.sample(self.node.node_id, len(partners))
            if len(replacements) < len(partners):
                replacements = list(partners)
            forged.append((period, tuple(replacements), chunk_ids))
        return tuple(forged)

    def __repr__(self) -> str:
        return (
            f"ColludingBehavior({self.degree}, bias={self.bias}, "
            f"mitm={self.man_in_the_middle}, forge={self.forge_history}, "
            f"launder={self.launder})"
        )
