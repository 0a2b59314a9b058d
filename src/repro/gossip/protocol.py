"""The three-phase gossip protocol node, with LiFTinG attached.

One :class:`GossipNode` implements §3's propose / request / serve cycle
and hosts the LiFTinG components: the verification engine (§5.2), a
reputation manager for the nodes it manages (§5.1), and an auditor
(§5.3).  Every decision an attacker could subvert is delegated to the
node's :class:`~repro.nodes.behavior.Behavior`.

The node runs on either plane through one host contract, and imports
neither: ``timeline`` (its ``now`` is the current time),
``call_later``, ``call_every`` and ``send_many(src, dsts, message,
kind)``, plus the fabric's ``is_connected``.  The simulator's
:class:`~repro.sim.network.SimTransport` and the asyncio runtime's
:class:`~repro.runtime.transport.AsyncTransport` both satisfy it; the
node binds the host's ``timeline``, ``call_later`` and ``send_many``
once, at construction, and calls them with no facade frame between.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Collection, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.config import WITNESS_ANSWER_DELAY, GossipParams, LiftingParams
from repro.core.audit import Auditor, AuditResult
from repro.core.reputation import (
    ManagerAssignment,
    ReputationManager,
    ScoreReader,
)
from repro.core.verification import VerificationEngine
from repro.gossip.chunks import NOT_OWNED, PAGE_BITS, PAGE_MASK, SOURCE_ID, ChunkStore
from repro.gossip.history import SHORT_IDS, LocalHistory
from repro.membership.base import STATUS_ALIVE, STATUS_DEAD, STATUS_SUSPECT
from repro.membership.failure_detector import FailureDetectorParams, SwimFailureDetector
from repro.nodes.behavior import Behavior, own_hook
from repro.util.validation import require
from repro.wire import (
    Ack,
    AuditRequest,
    AuditResponse,
    Blame,
    Confirm,
    ConfirmResponse,
    ExpelVote,
    HistoryPollRequest,
    HistoryPollResponse,
    MembershipUpdate,
    Ping,
    PingAck,
    PingReq,
    Propose,
    Request,
    ScoreQuery,
    ScoreReply,
    Serve,
    TCP,
    TCP_KINDS,
    UDP,
    WIRE_MESSAGE_CLASSES,
)

NodeId = int
ChunkId = int

#: How many logged proposals naming a chunk a retry considers, newest
#: first, before it gives the chunk up.
MAX_OFFERS_PER_CHUNK = 16

#: ``(proposer, valid) -> ConfirmResponse``: a witness's answer is one of
#: two frozen values per proposer, shared by every node and built both
#: at once, the first time any node answers about that proposer.
_CONFIRM_RESPONSES: Dict[Tuple[NodeId, bool], ConfirmResponse] = {}
#: Proposer ids come off the wire: a flood of distinct ones empties the
#: table at this size rather than growing it.
MAX_INTERNED_RESPONSES = 1 << 16


def _intern_answers(proposer: NodeId) -> None:
    """File both answers about ``proposer`` in :data:`_CONFIRM_RESPONSES`."""
    if len(_CONFIRM_RESPONSES) >= MAX_INTERNED_RESPONSES:
        _CONFIRM_RESPONSES.clear()
    for valid in (False, True):
        _CONFIRM_RESPONSES[proposer, valid] = ConfirmResponse(proposer=proposer, valid=valid)


@dataclass(slots=True, eq=False)
class _Window:
    """One request we sent, open until its ``serve_timeout`` (§5.2)."""

    proposer: NodeId
    proposal_id: int
    chunk_ids: Tuple[ChunkId, ...]


@dataclass(slots=True)
class _SentProposal:
    """Bookkeeping for a proposal we emitted (to validate requests):
    its own tuples, not copies (chunk ids past ``SHORT_IDS``: a set)."""

    partners: Tuple[NodeId, ...]
    chunk_ids: Collection[ChunkId]
    at: float


@dataclass
class NodeStats:
    """Per-node counters the metrics layer reads."""

    chunks_received: int = 0
    duplicate_serves: int = 0
    proposals_sent: int = 0
    proposals_received: int = 0
    requests_received: int = 0
    chunks_served: int = 0
    blames_emitted: float = 0.0
    blame_messages: int = 0


class GossipNode:
    """A protocol participant (honest or not — the behaviour decides)."""

    def __init__(
        self,
        node_id: NodeId,
        transport,
        sampler,
        gossip: GossipParams,
        lifting: LiftingParams,
        behavior: Behavior,
        assignment: Optional[ManagerAssignment] = None,
        rng: Optional[np.random.Generator] = None,
        *,
        lifting_enabled: bool = True,
        compensation: Optional[float] = None,
        on_expel_quorum: Optional[Callable[[NodeId, str], None]] = None,
        p_audit: float = 0.0,
        detector: Optional[FailureDetectorParams] = None,
        on_membership_event: Optional[Callable[[NodeId, NodeId, str, int], None]] = None,
    ) -> None:
        require(node_id >= 0, "node ids must be non-negative (SOURCE_ID=-1 is reserved)")
        self.node_id = node_id
        self.transport = transport
        # The host's per-message names, bound once (see the module
        # docstring): no lookup through the facade per call.
        #: ``timeline.now`` is the current time: under the simulator
        #: the engine itself, so a read is a slot read.
        self.timeline = transport.timeline
        #: ``_send_many(src, dsts, message, kind) -> sent``: the one
        #: send primitive, the host's own fan-out.
        self._send_many = transport.send_many
        #: ``call_later(delay, callback, *args)``: run ``callback(*args)``
        #: after ``delay`` seconds.  Nobody keeps the handle: a deadline
        #: inspects state when it fires.
        self.call_later = transport.call_later
        self.sampler = sampler
        self.gossip = gossip
        self.lifting = lifting
        self.behavior = behavior
        # The per-message hooks, bound once: None where the behaviour
        # inherits Behavior's, and the call site uses the honest value.
        self._serve_filter, self._serve_origin, self._confirm_answer, self._should_blame = [
            own_hook(behavior, name)
            for name in ("serve_filter", "serve_origin", "confirm_answer", "should_blame")
        ]
        self.assignment = assignment
        self.rng = rng if rng is not None else np.random.default_rng(node_id)
        #: ``random()``: one uniform [0, 1) draw (a Python float) from
        #: the node's stream, the generator's own method bound once.
        self.random = self.rng.random
        self.lifting_enabled = lifting_enabled
        self.on_expel_quorum = on_expel_quorum

        self.store = ChunkStore()
        self.history = LocalHistory(max_periods=lifting.history_periods + 2)
        self.stats = NodeStats()
        self.period = 0
        #: True once the first gossip period opened the history (checked
        #: per received message; cheaper than the history property).
        self._history_open = False
        # Transient state: each entry is deleted by the event that ends
        # what it waits for, and ``reset_gossip_state`` clears the lot.
        # chunk -> who served it, since the last propose phase (the
        # phase walks it in insertion order: RNG draws depend on it).
        self._fresh: Dict[ChunkId, NodeId] = {}
        # chunk -> the open request window that asked for it: a chunk
        # is pending exactly while it is a key.  Its serve under that
        # window's proposal id deletes it, or the window's timer does.
        self._awaited: Dict[ChunkId, _Window] = {}
        # target -> blame summed since the last flush (first-blame order).
        self._blame_outbox: Dict[NodeId, float] = {}
        self._sent_proposals: Dict[int, _SentProposal] = {}
        self._proposal_counter = 0
        self._timer = None
        # (at, proposer, proposal_id, chunk_ids) of each received
        # proposal naming a chunk we lacked, oldest first: where a lost
        # serve is re-requested.  The retry is rare, so it scans.
        self._offers: Deque[Tuple[float, NodeId, int, Tuple[ChunkId, ...]]] = deque()

        self.engine = VerificationEngine(self) if lifting_enabled else None
        self.auditor = Auditor(self) if lifting_enabled else None
        self.score_reader = (
            ScoreReader(self) if lifting_enabled and assignment is not None else None
        )
        self.manager: Optional[ReputationManager] = None
        if lifting_enabled and assignment is not None:
            self.manager = ReputationManager(
                owner=node_id,
                assignment=assignment,
                gossip=gossip,
                lifting=lifting,
                now=self.clock,
                compensation=compensation,
            )
        self.audit_scheduler = None
        if lifting_enabled and p_audit > 0.0:
            from repro.core.audit import AuditScheduler

            self.audit_scheduler = AuditScheduler(self, p_audit=p_audit)
        #: cluster-level callback for detector transitions; called as
        #: ``(reporter, node, status, incarnation)`` after the local
        #: blame-quarantine routing.
        self.on_membership_event = on_membership_event
        self.failure_detector: Optional[SwimFailureDetector] = None
        if detector is not None:
            self.failure_detector = SwimFailureDetector(
                self, detector, on_change=self._on_detector_event
            )
        self._dispatch = self._build_dispatch()
        #: public alias the network uses to deliver straight to handlers
        #: (must not be mutated after the node registers).
        self.dispatch_table = self._dispatch
        behavior.bind(self)

    def _build_dispatch(self) -> Dict[type, Callable]:
        """Type-keyed message dispatch table, built once per node.

        Replaces a 14-branch isinstance chain on the hottest protocol
        path; handlers owned by optional components (engine, manager,
        auditor, score reader) are only present when the component is —
        messages without an entry are dropped, exactly as the chain's
        ``is not None`` guards did.
        """
        table: Dict[type, Callable] = {
            Propose: self._on_propose,
            Request: self._on_request,
            Serve: self._on_serve,
            Confirm: self._on_confirm,
            AuditRequest: self._on_audit_request,
            HistoryPollRequest: self._on_history_poll,
        }
        if self.engine is not None:
            table[Ack] = self.engine.on_ack
            table[ConfirmResponse] = self.engine.on_confirm_response
        if self.manager is not None:
            # Bound straight to the manager: a delivered Blame is the
            # most frequent reputation message and needs no node-level
            # bookkeeping.
            table[Blame] = self.manager.on_blame_message
            table[ExpelVote] = self._on_expel_vote
            table[ScoreQuery] = self._on_score_query
        if self.score_reader is not None:
            table[ScoreReply] = self._on_score_reply
        if self.auditor is not None:
            table[AuditResponse] = self.auditor.on_audit_response
            table[HistoryPollResponse] = self.auditor.on_poll_response
        if self.failure_detector is not None:
            detector = self.failure_detector
            table[Ping] = detector.on_ping
            table[PingAck] = detector.on_ping_ack
            table[PingReq] = detector.on_ping_req
            table[MembershipUpdate] = detector.on_membership_update
        # Pre-seed the remaining wire classes with None so delivery-side
        # lookups are plain subscripts that hit for every protocol
        # message; an absent component still drops its messages.
        for cls in WIRE_MESSAGE_CLASSES:
            table.setdefault(cls, None)
        return table

    # ------------------------------------------------------------------
    # transport facade used by the engine / auditor
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Current time."""
        return self.timeline.now

    def send(self, dst: NodeId, message: object) -> bool:
        """Send ``message`` to ``dst`` on its kind's channel: TCP for the
        :data:`~repro.wire.TCP_KINDS`, UDP otherwise."""
        # A unicast is a one-destination fan-out.
        kind = TCP if message.__class__ in TCP_KINDS else UDP
        return self._send_many(self.node_id, (dst,), message, kind) > 0

    def send_many(self, dsts, message: object) -> int:
        """Send ``message`` to every node in ``dsts`` (fan-out batch).

        Equivalent to ``send`` per destination in order; under the
        simulator the per-message fixed costs are paid once per batch
        (see :meth:`repro.sim.network.Network.send_many`).  Returns how
        many were sent.
        """
        kind = TCP if message.__class__ in TCP_KINDS else UDP
        return self._send_many(self.node_id, dsts, message, kind)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the periodic gossip loop, desynchronised across nodes."""
        offset = float(self.rng.uniform(0.0, self.gossip.gossip_period))
        jitter_scale = 0.02 * self.gossip.gossip_period

        def jitter() -> float:
            return float(self.rng.uniform(-jitter_scale, jitter_scale))

        self._timer = self.transport.call_every(
            self.gossip.gossip_period,
            self._on_period,
            first_delay=offset,
            jitter=jitter,
        )
        if self.failure_detector is not None:
            self.failure_detector.start()

    def stop(self) -> None:
        """Stop the periodic loop (node leaves / experiment teardown)."""
        if self._timer is not None:
            self._timer.stop()
        if self.failure_detector is not None:
            self.failure_detector.stop()

    def reset_gossip_state(self) -> None:
        """Drop in-flight protocol state after a crash, before rejoining.

        The history restarts empty, which is exactly the young-node
        situation the audit layer already tolerates (short histories are
        not auto-guilty) — the rejoining node re-earns its record under
        its bumped incarnation.
        """
        self.history = LocalHistory(max_periods=self.lifting.history_periods + 2)
        self._history_open = False
        self._fresh.clear()
        # The old incarnation's windows still close on their timers, but
        # await nothing: they draw no blame and retry nothing.
        self._awaited.clear()
        self._blame_outbox.clear()
        self._sent_proposals.clear()
        self._offers.clear()
        if self.engine is not None:
            # Nor may its ack expectations and cross-checks draw blames
            # against the new incarnation (or its peers).
            self.engine.reset_transient()

    # ------------------------------------------------------------------
    # the gossip period
    # ------------------------------------------------------------------
    def _on_period(self) -> None:
        self.period += 1
        self.history.begin_period(self.period)
        self._history_open = True
        if self.engine is not None:
            self.engine.on_period_tick()
        self.behavior.on_period_start(self.period)
        self._flush_blames()
        self._prune_offers()
        self._expire_old_proposals()
        self._run_manager_duties()
        if self.audit_scheduler is not None:
            self.audit_scheduler.on_period_tick()
        detector = self.failure_detector
        if detector is not None:
            detector.on_period_tick()
            # Updates the probe did not carry ride the gossip fan-out
            # (SWIM's piggyback dissemination, zero extra round trips).
            updates = detector.drain_updates()
            if updates:
                partners = self.sampler.sample(self.node_id, self.gossip.fanout)
                if partners:
                    self.send_many(partners, MembershipUpdate(updates=updates))
        if self.period % self.behavior.period_stride() != 0:
            return
        self._propose_phase()

    def _prune_offers(self) -> None:
        """Drop logged proposals older than two periods."""
        horizon = self.timeline.now - 2 * self.gossip.gossip_period
        offers = self._offers
        while offers and offers[0][0] < horizon:
            offers.popleft()

    def _propose_phase(self) -> None:
        fresh = self._fresh
        if not fresh:
            return
        self._fresh = {}
        by_server: Dict[NodeId, List[ChunkId]] = {}
        for chunk_id, server in fresh.items():
            if server in by_server:
                by_server[server].append(chunk_id)
            else:
                by_server[server] = [chunk_id]
        filtered = self.behavior.propose_filter(by_server)
        chunk_ids: Tuple[ChunkId, ...] = tuple(
            sorted(chain.from_iterable(filtered.values()))
        )
        partners = tuple(self.behavior.select_partners(self.gossip.fanout))
        if not partners or not chunk_ids:
            return

        self._proposal_counter += 1
        proposal_id = (self.node_id << 20) | (self._proposal_counter & 0xFFFFF)
        propose = Propose(proposal_id=proposal_id, chunk_ids=chunk_ids)
        self._send_many(self.node_id, partners, propose, UDP)
        self.stats.proposals_sent += 1
        self.history.record_proposal(partners, chunk_ids)
        self._sent_proposals[proposal_id] = _SentProposal(
            partners,
            frozenset(chunk_ids) if chunk_ids[SHORT_IDS:] else chunk_ids,
            self.timeline.now,
        )

        if self.lifting_enabled:
            reported = self.behavior.ack_partners(partners)
            for server, ids in filtered.items():
                if server == SOURCE_ID or server == self.node_id:
                    continue
                ack = Ack(chunk_ids=tuple(sorted(ids)), partners=reported)
                self._send_many(self.node_id, (server,), ack, UDP)

    def _expire_old_proposals(self) -> None:
        """Drop proposal bookkeeping older than a few periods."""
        horizon = self.timeline.now - 4 * self.gossip.gossip_period
        stale = [pid for pid, rec in self._sent_proposals.items() if rec.at < horizon]
        for pid in stale:
            del self._sent_proposals[pid]

    def _run_manager_duties(self) -> None:
        if self.manager is None:
            return
        for target in self.manager.expulsion_candidates():
            self._broadcast_expel_vote(target)
            # Count our own vote towards the quorum.
            if self.manager.on_expel_vote(self.node_id, target):
                self._expel_quorum_reached(target)

    def _broadcast_expel_vote(self, target: NodeId) -> None:
        vote = ExpelVote(target=target)
        self.send_many(
            [m for m in self.assignment.managers_of(target) if m != self.node_id],
            vote,
        )

    def _expel_quorum_reached(self, target: NodeId) -> None:
        if self.on_expel_quorum is not None:
            self.on_expel_quorum(self.node_id, target, "score")

    def _on_detector_event(self, node: NodeId, status: str, incarnation: int) -> None:
        """A local failure-detector transition for ``node``.

        Routes the churn signal into the blame pipeline first — suspects
        get their blames quarantined, refuted suspects get them
        discarded, confirmed-dead nodes get them released (silence is
        freerider-compatible) — then forwards to the cluster-level
        handler that maintains the shared membership directory.
        """
        manager = self.manager
        if manager is not None:
            if status == STATUS_SUSPECT:
                manager.quarantine_target(node)
            elif status == STATUS_ALIVE:
                manager.discard_quarantine(node)
            elif status == STATUS_DEAD:
                manager.release_quarantine(node)
        callback = self.on_membership_event
        if callback is not None:
            callback(self.node_id, node, status, incarnation)

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, src: NodeId, message: object) -> None:
        """Network entry point (exact-type dispatch; see _build_dispatch)."""
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(src, message)

    def _on_score_reply(self, src: NodeId, message: ScoreReply) -> None:
        self.score_reader.on_reply(src, message.target, message.score, message.known)

    # ------------------------------------------------------------------
    # three phases (§3)
    # ------------------------------------------------------------------
    def _on_propose(self, src: NodeId, message: Propose) -> None:
        self.stats.proposals_received += 1
        chunk_ids = message.chunk_ids
        if self._history_open:
            self.history.record_received_proposal(src, chunk_ids)
        store = self.store
        pages = store.pages
        times = store.times
        missing = [
            c
            for c in chunk_ids
            if c >> PAGE_BITS not in pages
            or times[pages[c >> PAGE_BITS] + (c & PAGE_MASK)] == NOT_OWNED
        ]
        if not missing:
            return
        # One entry per message, holding the message's own tuple: also
        # the alternative source for the chunks we do not request now.
        self._offers.append((self.timeline.now, src, message.proposal_id, chunk_ids))
        awaited = self._awaited
        needed = tuple([c for c in missing if c not in awaited])
        if needed:
            self._send_request(src, message.proposal_id, needed)

    def _send_request(
        self, proposer: NodeId, proposal_id: int, chunk_ids: Tuple[ChunkId, ...]
    ) -> None:
        request = Request(proposal_id=proposal_id, chunk_ids=chunk_ids)
        self._send_many(self.node_id, (proposer,), request, UDP)
        window = _Window(proposer, proposal_id, chunk_ids)
        awaited = self._awaited
        for chunk_id in chunk_ids:
            awaited[chunk_id] = window
        self.call_later(self.lifting.serve_timeout, self._close_window, window)

    def _close_window(self, window: _Window) -> None:
        """``serve_timeout`` after a request: release what it still
        awaits, blame the proposer for it (LiFTinG on only), and retry
        it elsewhere."""
        awaited = self._awaited
        missing = []
        for chunk_id in window.chunk_ids:
            if chunk_id in awaited and awaited[chunk_id] is window:
                del awaited[chunk_id]
                missing.append(chunk_id)
        if not missing:
            return
        if self.engine is not None:
            # A hostile proposal may repeat an id: each chunk is owed once.
            requested = len(set(window.chunk_ids))
            self.engine.on_window_closed(window.proposer, requested, len(missing))
        self._retry_elsewhere(window.proposer, missing)

    def _on_request(self, src: NodeId, message: Request) -> None:
        proposals = self._sent_proposals
        proposal_id = message.proposal_id
        if proposal_id not in proposals or src not in proposals[proposal_id].partners:
            return  # §4.2: requests not matching a proposal are ignored
        record = proposals[proposal_id]
        self.stats.requests_received += 1
        store = self.store
        pages = store.pages
        times = store.times
        proposed = record.chunk_ids
        # Each named chunk is served at most once per request: repeating
        # an id must not buy its payload again.
        valid = [
            c
            for c in dict.fromkeys(message.chunk_ids)
            if c in proposed
            and c >> PAGE_BITS in pages
            and times[pages[c >> PAGE_BITS] + (c & PAGE_MASK)] != NOT_OWNED
        ]
        to_serve = valid if self._serve_filter is None else self._serve_filter(valid)
        # Drawn once per valid request even when nothing is served: a
        # MITM colluder's origin comes off the node's RNG stream.
        node_id = self.node_id
        origin = node_id if self._serve_origin is None else self._serve_origin()
        if not to_serve:
            return
        sizes = store.payload_sizes
        send_many = self._send_many
        for chunk_id in to_serve:
            serve = Serve(
                proposal_id=proposal_id,
                chunk_id=chunk_id,
                payload_size=sizes[pages[chunk_id >> PAGE_BITS] + (chunk_id & PAGE_MASK)],
                origin=origin,
            )
            send_many(node_id, (src,), serve, UDP)
        self.stats.chunks_served += len(to_serve)
        if self.engine is not None and origin == node_id:
            # A MITM colluder points the ack at the spoofed origin,
            # so it cannot (and does not) expect one itself.
            self.engine.on_serve_sent(src, *to_serve)

    def _on_serve(self, src: NodeId, message: Serve) -> None:
        chunk_id = message.chunk_id
        # Only the window that asked for the chunk counts it served: a
        # serve answering another request leaves that window short.
        awaited = self._awaited
        if chunk_id in awaited and awaited[chunk_id].proposal_id == message.proposal_id:
            del awaited[chunk_id]
        fresh = self.store.add(chunk_id, message.payload_size, received_at=self.timeline.now)
        if not fresh:
            self.stats.duplicate_serves += 1
            return
        self.stats.chunks_received += 1
        origin = message.origin
        self._fresh[chunk_id] = origin
        if self._history_open and origin != SOURCE_ID:
            self.history.fanin.append(origin)

    # ------------------------------------------------------------------
    # LiFTinG message handlers
    # ------------------------------------------------------------------
    def _on_confirm(self, src: NodeId, message: Confirm) -> None:
        if self._history_open:
            self.history.confirm_senders += (message.proposer, src)
        # Defer the answer: the confirm races the propose it asks about
        # (verifier is only an ack + confirm hop behind the proposer), so
        # the testimony is evaluated after a grace delay.  One Confirm
        # per served batch makes this the biggest timer source of a run.
        self.call_later(WITNESS_ANSWER_DELAY, self._answer_confirm, src, message)

    def _answer_confirm(self, src: NodeId, message: Confirm) -> None:
        proposer = message.proposer
        valid = self.history.was_proposed_by(proposer, message.chunk_ids, last=3)
        if self._confirm_answer is not None:
            valid = self._confirm_answer(proposer, valid)
        key = (proposer, valid)
        if key not in _CONFIRM_RESPONSES:
            _intern_answers(proposer)
        self._send_many(self.node_id, (src,), _CONFIRM_RESPONSES[key], UDP)

    def _on_expel_vote(self, src: NodeId, message: ExpelVote) -> None:
        if self.manager.on_expel_vote(src, message.target):
            self._expel_quorum_reached(message.target)

    def _on_score_query(self, src: NodeId, message: ScoreQuery) -> None:
        score = self.manager.normalized_score(message.target)
        reply = ScoreReply(
            target=message.target,
            score=score if score is not None else 0.0,
            known=score is not None,
        )
        self.send(src, reply)

    def _on_audit_request(self, src: NodeId, message: AuditRequest) -> None:
        snapshot = self.history.proposals_snapshot(last=message.periods)
        snapshot = self.behavior.history_snapshot(snapshot)
        self.send(src, AuditResponse(proposals=snapshot))

    def _on_history_poll(self, src: NodeId, message: HistoryPollRequest) -> None:
        target = message.target
        acknowledged = self.behavior.poll_acknowledge(
            target, self.history.was_proposed_by(target, message.chunk_ids)
        )
        senders = self.behavior.poll_confirm_senders(
            target, self.history.confirm_senders_about(target)
        )
        response = HistoryPollResponse(
            target=target,
            period=message.period,
            acknowledged=acknowledged,
            confirm_senders=tuple(senders),
        )
        self.send(src, response)

    # ------------------------------------------------------------------
    # callbacks used by the engine / auditor
    # ------------------------------------------------------------------
    def send_blame(self, target: NodeId, value: float, reason: str) -> None:
        """Queue a blame; the outbox fans it to the managers each period.

        Batching all blames of a period into one message per target
        keeps the reputation traffic at O(targets · M) instead of
        O(blame events · M) — blame values are summable by design (§5).
        """
        if target in (self.node_id, SOURCE_ID) or self.assignment is None:
            return
        if value > 0 and self._should_blame is not None and not self._should_blame(target):
            return
        if value > 0.0:
            self.stats.blames_emitted += value
        outbox = self._blame_outbox
        outbox[target] = (outbox[target] if target in outbox else 0.0) + value

    def _flush_blames(self) -> None:
        outbox = self._blame_outbox
        if not outbox:
            return
        self._blame_outbox = {}
        node_id = self.node_id
        local_targets: List[NodeId] = []
        local_values: List[float] = []
        for target, value in outbox.items():
            if value == 0.0:
                continue
            blame = Blame(target=target, value=value, reason="period-batch")
            managers = self.assignment.managers_of(target)
            if node_id in managers:
                local_targets.append(target)
                local_values.append(value)
                remote = [m for m in managers if m != node_id]
            else:
                remote = managers
            self._send_many(node_id, remote, blame, UDP)
            self.stats.blame_messages += len(remote)
        if local_targets and self.manager is not None:
            # This node manages some of its blame targets: apply the
            # whole period's worth in one batch.
            self.manager.on_blame_batch(local_targets, local_values)

    def _retry_elsewhere(self, proposer: NodeId, chunk_ids: List[ChunkId]) -> None:
        """A request window closed with ``chunk_ids`` unserved: retry.

        The serve or the request itself may have been lost; the node
        re-requests each missing chunk from an alternative proposer that
        recently advertised it, in a window of its own.  A chunk with no
        alternative stays released, for a later proposal to offer.
        """
        retry: Dict[Tuple[NodeId, int], List[ChunkId]] = defaultdict(list)
        is_connected = self.transport.is_connected
        for chunk_id in chunk_ids:
            if chunk_id in self.store:
                continue
            alternative = None
            named = 0
            for _at, src, pid, offered in reversed(self._offers):
                if chunk_id not in offered:
                    continue
                if src != proposer and is_connected(src):
                    alternative = (src, pid)
                    break
                named += 1
                if named == MAX_OFFERS_PER_CHUNK:
                    break
            if alternative is not None:
                retry[alternative].append(chunk_id)
        for (src, pid), ids in retry.items():
            self._send_request(src, pid, tuple(ids))

    def on_audit_verdict(self, target: NodeId, result: AuditResult) -> None:
        """An audit we ran completed; escalate entropy failures."""
        if not result.passed and self.on_expel_quorum is not None:
            self.on_expel_quorum(self.node_id, target, "audit")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GossipNode(id={self.node_id}, behavior={self.behavior.name}, "
            f"chunks={len(self.store)})"
        )
