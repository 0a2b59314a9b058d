"""The behaviour interface and its honest default.

Every hook receives the *protocol-correct* value and may return a
deviation; the honest behaviour returns it unchanged.  This makes the
protocol node itself attack-agnostic: §4's exhaustive attack list maps
one-to-one onto hook overrides.

A per-message hook the behaviour does not override is never called:
the node binds each through :func:`own_hook`, once, to None.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

NodeId = int
ChunkId = int

HistorySnapshot = Tuple[Tuple[int, Tuple[NodeId, ...], Tuple[ChunkId, ...]], ...]


class Behavior:
    """Base behaviour: strictly protocol-compliant (honest).

    The node calls :meth:`bind` once at construction; hooks may use
    ``self.node`` (the protocol node) for parameters, sampling and
    randomness.
    """

    __slots__ = ("node",)

    name = "honest"

    def __init__(self) -> None:
        self.node = None

    def bind(self, node) -> None:
        """Attach this behaviour to its protocol node."""
        self.node = node

    # ------------------------------------------------------------------
    # period hook (adaptation point)
    # ------------------------------------------------------------------
    def on_period_start(self, period: int) -> None:
        """Called once per local gossip period, before blames flush.

        The honest default does nothing; adversaries use it to inject
        reputation traffic (see :mod:`repro.adversary`).  Hooks here may call
        ``self.node.send_blame`` — emissions land in the same period's
        flush.
        """

    # ------------------------------------------------------------------
    # propose phase (§4.1)
    # ------------------------------------------------------------------
    def select_partners(self, fanout: int) -> List[NodeId]:
        """The ``f`` propose partners for this period."""
        return self.node.sampler.sample(self.node.node_id, fanout)

    def propose_filter(
        self, by_server: Dict[NodeId, List[ChunkId]]
    ) -> Dict[NodeId, List[ChunkId]]:
        """Which received chunks to include, grouped by serving node."""
        return by_server

    def period_stride(self) -> int:
        """Propose every ``stride``-th period tick (>1 = the
        gossip-period-increase attack of §4.1(iv))."""
        return 1

    # ------------------------------------------------------------------
    # serving phase (§4.3)
    # ------------------------------------------------------------------
    def serve_filter(self, requested: List[ChunkId]) -> List[ChunkId]:
        """Which requested chunks to actually serve."""
        return requested

    def serve_origin(self) -> NodeId:
        """The origin identity stamped on serves (spoofed by MITM)."""
        return self.node.node_id

    # ------------------------------------------------------------------
    # verification hooks (§5)
    # ------------------------------------------------------------------
    def ack_partners(self, partners: Tuple[NodeId, ...]) -> Tuple[NodeId, ...]:
        """The partner list reported in acks (forged by colluders)."""
        return partners

    def confirm_answer(self, proposer: NodeId, truthful: bool) -> bool:
        """Answer to a confirm request about ``proposer``."""
        return truthful

    def should_blame(self, target: NodeId) -> bool:
        """Whether to emit a blame against ``target`` (cover-ups say no)."""
        return True

    def history_snapshot(self, snapshot: HistorySnapshot) -> HistorySnapshot:
        """The history returned to an auditor (forgeable)."""
        return snapshot

    def poll_acknowledge(self, target: NodeId, truthful: bool) -> bool:
        """Answer to an a-posteriori history poll about ``target``."""
        return truthful

    def poll_confirm_senders(
        self, target: NodeId, truthful: List[NodeId]
    ) -> List[NodeId]:
        """The confirm-sender log reported about ``target``."""
        return truthful

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def own_hook(behavior: Behavior, name: str):
    """``behavior``'s own hook ``name``, or None where its class keeps ``Behavior``'s."""
    if getattr(type(behavior), name) is Behavior.__dict__[name]:
        return None
    return getattr(behavior, name)


class HonestBehavior(Behavior):
    """Alias for the honest default, for explicitness at call sites."""

    __slots__ = ()

    name = "honest"
