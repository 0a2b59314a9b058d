"""Direct verification and direct cross-checking (§5.2).

The engine is hosted by a protocol node and tracks three kinds of
pending state:

* **pending acks** (we served chunks, we expect an ``ack`` naming the
  ``f`` partners they were re-proposed to) — an ack that omits served
  chunks, or no ack at all within the timeout, is the *invalid
  proposal* case and draws blame ``f``; an ack listing fewer than ``f``
  partners draws ``f - f̂`` (fanout decrease); a received ack triggers,
  with probability ``p_dcc``, a confirm round with the listed witnesses
  where every contradictory or missing testimony draws blame 1.
* **pending confirm rounds** (verifier side) — tallied at
  ``confirm_timeout``.
* **pending requests** (we requested chunks, direct verification) — at
  ``serve_timeout`` every missing chunk draws ``f/|R|``, a fully
  ignored request draws ``f``.

The host interface the engine needs (satisfied by
:class:`repro.gossip.protocol.GossipNode` on both planes): ``node_id``,
``clock()``, ``call_later(delay, fn, *args)`` (fire-and-forget: every
timeout here inspects state when it fires), ``random()`` (a uniform
[0,1) draw), ``send(dst, message)`` and ``send_many(dsts, message)``
(each kind on its declared channel, :data:`repro.wire.TCP_KINDS`),
``send_blame(target, value, reason)``,
``on_request_expired(proposer, chunk_ids)`` and the ``gossip``/
``lifting`` parameter sets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

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
from repro.wire import Ack, Confirm, ConfirmResponse

NodeId = int
ChunkId = int


@dataclass(slots=True)
class _ConfirmRound:
    """One verifier-side cross-check: witnesses we are waiting on."""

    proposer: NodeId
    witnesses: Set[NodeId]
    valid: int = 0
    answered: Set[NodeId] = field(default_factory=set)


@dataclass(slots=True)
class _PendingRequest:
    """One direct-verification window for a request we sent."""

    proposer: NodeId
    expected: Set[ChunkId]
    received: Set[ChunkId] = field(default_factory=set)

    @property
    def request_size(self) -> int:
        return len(self.expected)


class VerificationEngine:
    """Per-node state machine for §5.2's verifications."""

    def __init__(self, host) -> None:
        self.host = host
        # Hot-path shortcuts mirroring the host's own: read the sim
        # clock attribute directly instead of going through the host
        # facade (one frame per serve/ack/round), falling back to
        # ``host.clock()`` for live transports / test stubs; the host's
        # ``call_later`` is bound once (on a GossipNode it already *is*
        # the simulator's or the live transport's own method), and so
        # is its ``send_many``.
        self._sim = getattr(host, "_sim", None)
        self._call_later = host.call_later
        self._host_send_many = host.send_many
        # requester -> {chunk_id: served_at}.  A requester is a key iff
        # it has an outstanding serve, so the dict's order is first-serve
        # order with a drained requester re-entering at the end — the
        # order the period sweep blames in.
        self._pending_acks: Dict[NodeId, Dict[ChunkId, float]] = {}
        # round id -> open round, in start order; each is popped by its
        # own confirm timeout.
        self._confirm_rounds: Dict[int, _ConfirmRound] = {}
        self._pending_requests: Dict[int, _PendingRequest] = {}
        self._round_counter = 0
        # Diagnostics.
        self.blames_by_reason: Dict[str, float] = defaultdict(float)
        self.confirm_rounds_started = 0

    # ------------------------------------------------------------------
    # serving side: expect acks, run cross-checks
    # ------------------------------------------------------------------
    def on_serve_sent(self, requester: NodeId, *chunk_ids: ChunkId) -> None:
        """We served ``chunk_ids`` (at least one) to ``requester`` in
        answer to one request; an ack must follow.

        A duplicate serve of the same chunk — a retry chain looping back
        to us — just refreshes its clock.
        """
        sim = self._sim
        now = sim.now if sim is not None else self.host.clock()
        pending = self._pending_acks.get(requester)
        if pending is None:
            pending = self._pending_acks[requester] = {}
        for chunk_id in chunk_ids:
            pending[chunk_id] = now

    def on_ack(self, src: NodeId, ack: Ack) -> None:
        """Handle the ack of a node we served; §5.2's verifier role."""
        host = self.host
        fanout = host.gossip.fanout
        pending = self._pending_acks.get(src)
        if pending is not None:
            sim = self._sim
            now = sim.now if sim is not None else host.clock()
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
                self._blame(src, no_ack_blame(fanout), REASON_INVALID_PROPOSAL)
            if not pending:
                del self._pending_acks[src]

        if len(ack.partners) < fanout:
            value = fanout_decrease_blame(fanout, len(ack.partners))
            if value > 0:
                self._blame(src, value, REASON_FANOUT_DECREASE)

        if ack.partners and self.host.random() < self.host.lifting.p_dcc:
            self._start_confirm_round(src, ack)

    def _start_confirm_round(self, proposer: NodeId, ack: Ack) -> None:
        self._round_counter += 1
        round_id = self._round_counter
        witnesses = set(ack.partners)
        self._confirm_rounds[round_id] = _ConfirmRound(proposer=proposer, witnesses=witnesses)
        self.confirm_rounds_started += 1
        confirm = Confirm(proposer=proposer, chunk_ids=ack.chunk_ids)
        self._host_send_many(witnesses, confirm)
        self._call_later(self.host.lifting.confirm_timeout, self._finish_confirm_round, round_id)

    def on_confirm_response(self, src: NodeId, response: ConfirmResponse) -> None:
        """A witness answered one of our confirm requests.

        The response names only the proposer, so it is credited to the
        oldest open round about that proposer which asked ``src`` and
        has not heard from it yet; a late, duplicate or unsolicited
        response finds no such round and is ignored.
        """
        proposer = response.proposer
        for round_state in self._confirm_rounds.values():
            if (
                round_state.proposer == proposer
                and src in round_state.witnesses
                and src not in round_state.answered
            ):
                round_state.answered.add(src)
                if response.valid:
                    round_state.valid += 1
                return

    def _finish_confirm_round(self, round_id: int) -> None:
        round_state = self._confirm_rounds.pop(round_id, None)
        if round_state is None:
            return
        contradictions = len(round_state.witnesses) - round_state.valid
        if contradictions > 0:
            value = contradictions * witness_contradiction_blame()
            self._blame(round_state.proposer, value, REASON_WITNESS_CONTRADICTION)

    # ------------------------------------------------------------------
    # requesting side: direct verification
    # ------------------------------------------------------------------
    def on_request_sent(
        self, proposer: NodeId, proposal_id: int, chunk_ids: Tuple[ChunkId, ...]
    ) -> None:
        """We requested ``chunk_ids``; start the serve-timeout window."""
        if not chunk_ids:
            return
        self._pending_requests[proposal_id] = _PendingRequest(
            proposer=proposer, expected=set(chunk_ids)
        )
        self._call_later(self.host.lifting.serve_timeout, self._finish_request, proposal_id)

    def on_serve_received(self, proposal_id: int, chunk_id: ChunkId) -> None:
        """A serve matching one of our requests arrived."""
        try:
            pending = self._pending_requests[proposal_id]
        except KeyError:
            return  # the window closed, or the serve answers no request of ours
        pending.received.add(chunk_id)

    def _finish_request(self, proposal_id: int) -> None:
        pending = self._pending_requests.pop(proposal_id, None)
        if pending is None:
            return
        missing = pending.expected - pending.received
        if missing:
            served = pending.request_size - len(missing)
            value = partial_serve_blame(
                self.host.gossip.fanout, pending.request_size, served
            )
            self._blame(pending.proposer, value, REASON_PARTIAL_SERVE)
            self.host.on_request_expired(pending.proposer, missing)

    # ------------------------------------------------------------------
    # periodic sweep: missing acks
    # ------------------------------------------------------------------
    def on_period_tick(self) -> None:
        """Blame requesters whose acks never arrived (once per sweep)."""
        pending_acks = self._pending_acks
        if not pending_acks:
            return
        host = self.host
        sim = self._sim
        now = sim.now if sim is not None else host.clock()
        timeout = host.lifting.ack_timeout
        fanout = host.gossip.fanout
        drained = []
        for requester, pending in pending_acks.items():
            expired = [c for c, served_at in pending.items() if now - served_at >= timeout]
            if expired:
                for chunk_id in expired:
                    del pending[chunk_id]
                self._blame(requester, no_ack_blame(fanout), REASON_NO_ACK)
                if not pending:
                    drained.append(requester)
        for requester in drained:
            del pending_acks[requester]

    # ------------------------------------------------------------------
    def _blame(self, target: NodeId, value: float, reason: str) -> None:
        self.blames_by_reason[reason] += value
        self.host.send_blame(target, value, reason)

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
        self._pending_requests.clear()

    @property
    def pending_ack_count(self) -> int:
        """Requesters we are currently awaiting acks from."""
        return len(self._pending_acks)

    @property
    def open_confirm_rounds(self) -> int:
        """Cross-check rounds whose timeout has not yet fired."""
        return len(self._confirm_rounds)

    @property
    def open_request_windows(self) -> int:
        """Direct-verification windows still open."""
        return len(self._pending_requests)
