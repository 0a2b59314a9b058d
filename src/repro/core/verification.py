"""Direct verification and direct cross-checking (§5.2).

The engine is hosted by a protocol node and tracks two kinds of
pending state:

* **pending acks** (we served chunks, we expect an ``ack`` naming the
  ``f`` partners they were re-proposed to) — an ack that omits served
  chunks, or no ack at all within the timeout, is the *invalid
  proposal* case and draws blame ``f``; an ack listing fewer than ``f``
  distinct partners other than its sender draws ``f - f̂`` (fanout
  decrease); a received ack triggers, with probability ``p_dcc``, a
  confirm round with those witnesses where every contradictory or
  missing testimony draws blame 1.
* **pending confirm rounds** (verifier side) — filed per proposer and
  tallied at ``confirm_timeout``, which all share: they close in start order.

Direct verification keeps no state here: the host's request windows are
its own (one per request, which a retry needs as much as a blame).  The
engine only blames, when a window closes at ``serve_timeout`` with
chunks missing: every missing chunk draws ``f/|R|``, a fully ignored
request draws ``f``.

The host interface the engine needs (satisfied by
:class:`repro.gossip.protocol.GossipNode` on both planes): ``timeline``
(its ``now`` is the current time), ``call_later(delay, fn, *args)``
(fire-and-forget: every timeout here inspects state when it fires),
``random()`` (a uniform [0,1) draw), ``node_id``, ``transport`` (the
plane's host contract, whose ``send_many(src, dsts, message, kind)``
carries the confirms, a UDP kind), ``send_blame(target, value, reason)``
and the ``gossip``/``lifting`` parameter sets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.blames import (
    REASON_FANOUT_DECREASE,
    REASON_INVALID_PROPOSAL,
    REASON_NO_ACK,
    REASON_PARTIAL_SERVE,
    REASON_WITNESS_CONTRADICTION,
    fanout_decrease_blame,
    no_ack_blame,
    partial_serve_blame,
    witness_contradiction_blame,
)
from repro.wire import UDP, Ack, Confirm, ConfirmResponse

NodeId = int
ChunkId = int


@dataclass(slots=True)
class _ConfirmRound:
    """One verifier-side cross-check: the ``asked`` distinct witnesses,
    those that answered (tuples: a set costs six times as much) and the
    valid answers so far."""

    proposer: NodeId
    witnesses: Tuple[NodeId, ...]
    asked: int
    answered: Tuple[NodeId, ...] = ()
    valid: int = 0


class VerificationEngine:
    """Per-node state machine for §5.2's verifications."""

    __slots__ = (
        "host", "_timeline", "_call_later", "_node_id", "_send_many", "_random", "_finish_round_cb",
        "_no_ack_value", "_contradiction_value", "_pending_acks", "_confirm_rounds",
        "blames_by_reason",
    )

    def __init__(self, host) -> None:
        self.host = host
        # Hot-path shortcuts mirroring the host's own: its ``timeline``
        # (read ``now`` off it, no clock frame per serve/ack/round), its
        # ``call_later`` (on a GossipNode already the plane's own
        # method), the plane's ``send_many`` (no frame picking the kind:
        # a Confirm is UDP) and its ``random``, bound once.
        self._timeline = host.timeline
        self._call_later = host.call_later
        self._node_id = host.node_id
        self._send_many = host.transport.send_many
        self._random = host.random
        # The round timer's callback, bound once for every pending timer.
        self._finish_round_cb = self._finish_confirm_round
        # Table 1's two constant blames, computed once: an invalid or
        # missing ack draws ``f``, a contradicting witness 1.
        self._no_ack_value = no_ack_blame(host.gossip.fanout)
        self._contradiction_value = witness_contradiction_blame()
        # requester -> {chunk_id: served_at}.  A requester is a key iff
        # it has an outstanding serve, so the dict's order is first-serve
        # order with a drained requester re-entering at the end — the
        # order the period sweep blames in.
        self._pending_acks: Dict[NodeId, Dict[ChunkId, float]] = {}
        # proposer -> its open rounds, in start order (so in closing
        # order); a proposer is a key iff it has an open round.
        self._confirm_rounds: Dict[NodeId, List[_ConfirmRound]] = {}
        # Diagnostics: each blame the engine emits, tallied under its
        # reason as it is handed to the host's ``send_blame``.
        self.blames_by_reason: Dict[str, float] = defaultdict(float)

    # ------------------------------------------------------------------
    # serving side: expect acks, run cross-checks
    # ------------------------------------------------------------------
    def on_serve_sent(self, requester: NodeId, *chunk_ids: ChunkId) -> None:
        """We served ``chunk_ids`` (at least one) to ``requester`` in
        answer to one request; an ack must follow.

        A duplicate serve of the same chunk — a retry chain looping back
        to us — just refreshes its clock.
        """
        now = self._timeline.now
        pending_acks = self._pending_acks
        if requester in pending_acks:
            pending = pending_acks[requester]
        else:
            pending = pending_acks[requester] = {}
        for chunk_id in chunk_ids:
            pending[chunk_id] = now

    def on_ack(self, src: NodeId, ack: Ack) -> None:
        """Handle the ack of a node we served; §5.2's verifier role."""
        host = self.host
        fanout = host.gossip.fanout
        pending_acks = self._pending_acks
        if src in pending_acks:
            pending = pending_acks[src]
            now = self._timeline.now
            acked = set(ack.chunk_ids)
            period = host.gossip.gossip_period
            overdue = False
            for chunk_id, served_at in list(pending.items()):
                if chunk_id in acked:
                    del pending[chunk_id]
                # Chunks we served long enough ago that they *must* have
                # been in this proposal (one gossip period, §5.2) but are
                # absent: the proposal is invalid — blame f.
                elif now - served_at >= period:
                    del pending[chunk_id]
                    overdue = True
            if overdue:
                value = self._no_ack_value
                self.blames_by_reason[REASON_INVALID_PROPOSAL] += value
                host.send_blame(src, value, REASON_INVALID_PROPOSAL)
            if not pending:
                del pending_acks[src]

        # The fan-out is the distinct partners other than the proposer:
        # a repeated or self-listed partner is no proposal, nor a witness.
        distinct = set(ack.partners)
        distinct -= {src}
        reached = len(distinct)
        if reached < fanout:
            value = fanout_decrease_blame(fanout, reached)
            if value > 0:
                self.blames_by_reason[REASON_FANOUT_DECREASE] += value
                host.send_blame(src, value, REASON_FANOUT_DECREASE)

        if reached and self._random() < host.lifting.p_dcc:
            # Start a cross-check round: the witnesses it waits on, in
            # the set's order (the order the Confirms go out in).
            witnesses = tuple(distinct)
            round_state = _ConfirmRound(src, witnesses, reached)
            rounds = self._confirm_rounds
            if src in rounds:
                rounds[src].append(round_state)
            else:
                rounds[src] = [round_state]
            self._send_many(
                self._node_id, witnesses, Confirm(proposer=src, chunk_ids=ack.chunk_ids), UDP
            )
            self._call_later(host.lifting.confirm_timeout, self._finish_round_cb, round_state)

    def on_confirm_response(self, src: NodeId, response: ConfirmResponse) -> None:
        """A witness answered one of our confirm requests.

        The response names only the proposer, so it is credited to the
        oldest open round about that proposer which asked ``src`` and
        has not heard from it yet; a late, duplicate or unsolicited
        response finds no such round and is ignored.
        """
        try:
            rounds = self._confirm_rounds[response.proposer]
        except KeyError:
            return
        for round_state in rounds:
            if src in round_state.witnesses and src not in round_state.answered:
                round_state.answered += (src,)
                if response.valid:
                    round_state.valid += 1
                return

    def _finish_confirm_round(self, round_state: _ConfirmRound) -> None:
        # Rounds close in start order, so this is its proposer's oldest,
        # unless ``reset_transient`` dropped it: then the timer does nothing.
        proposer = round_state.proposer
        rounds = self._confirm_rounds
        if proposer not in rounds or rounds[proposer][0] is not round_state:
            return
        del rounds[proposer][0]
        if not rounds[proposer]:
            del rounds[proposer]
        contradictions = round_state.asked - round_state.valid
        if contradictions > 0:
            value = contradictions * self._contradiction_value
            self.blames_by_reason[REASON_WITNESS_CONTRADICTION] += value
            self.host.send_blame(proposer, value, REASON_WITNESS_CONTRADICTION)

    # ------------------------------------------------------------------
    # requesting side: direct verification
    # ------------------------------------------------------------------
    def on_window_closed(self, proposer: NodeId, requested: int, missing: int) -> None:
        """A request of ``requested`` chunks to ``proposer`` reached its
        ``serve_timeout`` with ``missing`` of them unserved (at least one)."""
        value = partial_serve_blame(self.host.gossip.fanout, requested, requested - missing)
        self.blames_by_reason[REASON_PARTIAL_SERVE] += value
        self.host.send_blame(proposer, value, REASON_PARTIAL_SERVE)

    # ------------------------------------------------------------------
    # periodic sweep: missing acks
    # ------------------------------------------------------------------
    def on_period_tick(self) -> None:
        """Blame requesters whose acks never arrived (once per sweep)."""
        pending_acks = self._pending_acks
        if not pending_acks:
            return
        host = self.host
        now = self._timeline.now
        timeout = host.lifting.ack_timeout
        value = self._no_ack_value
        by_reason = self.blames_by_reason
        drained = []
        for requester, pending in pending_acks.items():
            expired = [c for c, served_at in pending.items() if now - served_at >= timeout]
            if expired:
                for chunk_id in expired:
                    del pending[chunk_id]
                by_reason[REASON_NO_ACK] += value
                host.send_blame(requester, value, REASON_NO_ACK)
                if not pending:
                    drained.append(requester)
        for requester in drained:
            del pending_acks[requester]

    # ------------------------------------------------------------------
    def purge_requester(self, node_id: NodeId) -> None:
        """Drop any pending acks naming ``node_id`` as requester.

        Called when a node is readmitted under a bumped incarnation so
        that no stale ack expectations (and the blames they would draw)
        leak across incarnations.
        """
        self._pending_acks.pop(node_id, None)

    def reset_transient(self) -> None:
        """Clear all pending verification state (new incarnation)."""
        self._pending_acks.clear()
        self._confirm_rounds.clear()

    @property
    def pending_ack_count(self) -> int:
        """Requesters we are currently awaiting acks from."""
        return len(self._pending_acks)

    @property
    def open_confirm_rounds(self) -> int:
        """Cross-check rounds whose timeout has not yet fired."""
        return sum(map(len, self._confirm_rounds.values()))
