"""Bounded local history — the accountability substrate of LiFTinG.

Every node keeps a trace of the events of the last ``n_h = h / T_g``
gossip periods (§5):

* the propose events it initiated (partners + chunk ids) — the fanout
  multiset ``F_h`` audited in §5.3;
* the nodes that served it chunks — its fanin;
* the proposals it *received* (needed to answer a-posteriori
  cross-check polls about other nodes);
* the verifiers that asked it to *confirm* proposals of some proposer —
  the raw material of the fanin multiset ``F'_h`` collected from
  witnesses.

The history is a ring of per-period records; appending is O(1) and the
memory bound is ``n_h`` records regardless of run length.

Flattened layout
----------------
The ring preallocates its :class:`PeriodRecord` slots and *reuses* them
on wraparound, so a steady-state node allocates no record objects.  A
record keeps what arrived, not copies: a received proposal is the
Propose's own ``chunk_ids`` tuple (a set on a repeat inside the period
or past :data:`SHORT_IDS` ids), and the Confirm log is flat, two ints
per Confirm.  No index is kept beside the ring: a witness answering a
Confirm looks the proposer up in :attr:`LocalHistory.witness_window`,
the last :data:`WITNESS_PERIODS` records' received proposals, and a
history poll in the window's records (:meth:`was_proposed_by`).  The
node writes a Serve, a Confirm or a proposer's first Propose of the
period with no call, into the open record's ``fanin`` /
``confirm_senders`` / ``received_proposals`` (exposed by
:meth:`begin_period`); per-audit readers (:meth:`confirm_senders_about`,
:meth:`proposals_snapshot`) scan the window.

Records returned by :meth:`records` are the live ring slots: they are
valid until the ring wraps past them, at which point they are recycled.
Take snapshots (:meth:`proposals_snapshot`) to retain data beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Tuple

from repro.util.validation import require

NodeId = int
ChunkId = int

#: Ids kept or queried as a tuple are searched one by one, so a tuple
#: longer than this (honest proposals carry ~9, a hostile one up to 4096)
#: is made a set first; the test is a slice, ``ids[SHORT_IDS:]``: no call.
SHORT_IDS = 64

#: A witness answers a Confirm from the proposals it received in the
#: last this many periods (the open one included).
WITNESS_PERIODS = 3


@dataclass(slots=True)
class PeriodRecord:
    """Everything a node logs about one gossip period."""

    period: int
    #: the propose event of this period: (partners, chunk ids); None when
    #: the node had nothing to propose (received no chunk last period).
    proposal: Optional[Tuple[Tuple[NodeId, ...], Tuple[ChunkId, ...]]] = None
    #: nodes that served us a chunk during this period (their claimed
    #: origin, which a man-in-the-middle colluder spoofs).
    fanin: List[NodeId] = field(default_factory=list)
    #: proposer -> chunk ids proposed to us during this period: the
    #: Propose's own tuple, or a set on a repeat or past ``SHORT_IDS`` ids.
    received_proposals: Dict[NodeId, Collection[ChunkId]] = field(default_factory=dict)
    #: proposer, verifier, proposer, verifier, ... of each Confirm
    #: received, in arrival order.
    confirm_senders: List[NodeId] = field(default_factory=list)


class LocalHistory:
    """Ring buffer of :class:`PeriodRecord`, bounded to ``n_h`` periods."""

    __slots__ = (
        "max_periods", "_slots", "_current", "fanin", "confirm_senders", "received_proposals",
        "witness_window", "_seq",
    )

    def __init__(self, max_periods: int) -> None:
        require(max_periods >= 1, "max_periods must be >= 1, got %d", max_periods)
        self.max_periods = max_periods
        self._slots: List[Optional[PeriodRecord]] = [None] * max_periods
        self._current: Optional[PeriodRecord] = None
        #: the open record's three logs (None before the first period).
        self.fanin: Optional[List[NodeId]] = None
        self.confirm_senders: Optional[List[NodeId]] = None
        self.received_proposals: Optional[Dict[NodeId, Collection[ChunkId]]] = None
        #: the ``received_proposals`` of the last :data:`WITNESS_PERIODS`
        #: records, oldest first (fewer before that many periods opened).
        self.witness_window: Tuple[Dict[NodeId, Collection[ChunkId]], ...] = ()
        #: number of begin_period calls so far.
        self._seq = 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def begin_period(self, period: int) -> None:
        """Open the record of gossip period ``period``."""
        seq = self._seq + 1
        self._seq = seq
        slot = (seq - 1) % self.max_periods
        record = self._slots[slot]
        if record is None:
            record = PeriodRecord(period=period)
            self._slots[slot] = record
        else:
            record.period = period
            record.proposal = None
            record.fanin.clear()
            record.received_proposals.clear()
            record.confirm_senders.clear()
        self._current = record
        self.fanin = record.fanin
        self.confirm_senders = record.confirm_senders
        received = self.received_proposals = record.received_proposals
        self.witness_window = (*self.witness_window[1 - WITNESS_PERIODS :], received)

    def _ensure_open(self) -> PeriodRecord:
        record = self._current
        if record is None:
            require(False, "no open period — call begin_period first")
        return record

    def record_proposal(
        self, partners: Tuple[NodeId, ...], chunk_ids: Tuple[ChunkId, ...]
    ) -> None:
        """Log this period's propose event (one per period)."""
        record = self._ensure_open()
        record.proposal = (partners, chunk_ids)

    def record_received_proposal(self, proposer: NodeId, chunk_ids: Tuple[ChunkId, ...]) -> None:
        """Log a proposal received from ``proposer``: its own tuple, not a
        copy.  A repeat inside the period merges into a set (never a
        concatenation, which a flood of Proposes would make quadratic)."""
        record = self._current
        if record is None:
            self._ensure_open()
        received = record.received_proposals
        if proposer not in received:
            received[proposer] = set(chunk_ids) if chunk_ids[SHORT_IDS:] else chunk_ids
            return
        seen = received[proposer]
        if seen.__class__ is set:
            seen.update(chunk_ids)
        else:
            received[proposer] = {*seen, *chunk_ids}

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def records(self, last: Optional[int] = None) -> List[PeriodRecord]:
        """The most recent ``last`` period records (oldest first).

        The returned records are the live ring slots (recycled once the
        ring wraps past them) — snapshot what must outlive the window.
        """
        seq = self._seq
        count = min(seq, self.max_periods)
        if last is not None and last < count:
            count = max(last, 0)
        cap = self.max_periods
        slots = self._slots
        return [slots[(s - 1) % cap] for s in range(seq - count + 1, seq + 1)]

    def proposals_snapshot(
        self, last: Optional[int] = None
    ) -> Tuple[Tuple[int, Tuple[NodeId, ...], Tuple[ChunkId, ...]], ...]:
        """The propose events in audit-response form."""
        out = []
        for record in self.records(last):
            if record.proposal is not None:
                partners, chunk_ids = record.proposal
                out.append((record.period, partners, chunk_ids))
        return tuple(out)

    def was_proposed_by(
        self, proposer: NodeId, chunk_ids: Tuple[ChunkId, ...], *, last: Optional[int] = None
    ) -> bool:
        """Did we receive a proposal from ``proposer`` containing all of
        ``chunk_ids`` within one period of the window?  Witnesses use
        this to answer confirm requests and a-posteriori polls."""
        if chunk_ids[SHORT_IDS:]:
            # hostile length: at most SHORT_IDS distinct ids pass a tuple
            chunk_ids = set(chunk_ids)
        seq = self._seq
        cap = self.max_periods
        count = seq if seq < cap else cap
        if last is not None and last < count:
            count = last
        slots = self._slots
        for s in range(seq - count, seq):
            received = slots[s % cap].received_proposals
            if proposer in received:
                seen = received[proposer]
                for chunk_id in chunk_ids:
                    if chunk_id not in seen:
                        break
                else:
                    return True
        return False

    def confirm_senders_about(self, proposer: NodeId, last: Optional[int] = None) -> List[NodeId]:
        """All verifiers that asked us about ``proposer`` in the window
        (oldest period first, arrival order within a period)."""
        out = []
        for record in self.records(last):
            pairs = iter(record.confirm_senders)
            for about, verifier in zip(pairs, pairs):
                if about == proposer:
                    out.append(verifier)
        return out
