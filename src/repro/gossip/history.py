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
on wraparound (containers are cleared in place), so a steady-state node
allocates no per-period record objects.  Alongside the raw ring the
history maintains one per-proposer index, over received proposals, so
the witness query that runs per Confirm (:meth:`was_proposed_by`)
touches only the queried proposer's entries instead of every record in
the window.  Nothing else is kept incrementally: :meth:`begin_period`
exposes the open record's ``fanin`` and ``confirm_senders`` lists, so a
Serve's origin or a Confirm's sender is one append by the node, with no
history frame; what is read per audit rather than per message
(:meth:`confirm_senders_about` per HistoryPoll, :meth:`proposals_snapshot`
from which the auditor computes ``F_h``) scans the window.

Records returned by :meth:`records` are the live ring slots: they are
valid until the ring wraps past them, at which point they are recycled.
Take snapshots (:meth:`proposals_snapshot`) to retain data beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.util.validation import require

NodeId = int
ChunkId = int


@dataclass
class PeriodRecord:
    """Everything a node logs about one gossip period."""

    period: int
    #: the propose event of this period: (partners, chunk ids); None when
    #: the node had nothing to propose (received no chunk last period).
    proposal: Optional[Tuple[Tuple[NodeId, ...], Tuple[ChunkId, ...]]] = None
    #: nodes that served us a chunk during this period (their claimed
    #: origin, which a man-in-the-middle colluder spoofs).
    fanin: List[NodeId] = field(default_factory=list)
    #: proposer -> chunk ids of proposals received during this period.
    received_proposals: Dict[NodeId, Set[ChunkId]] = field(default_factory=dict)
    #: (proposer, verifier) of each Confirm received, in arrival order.
    confirm_senders: List[Tuple[NodeId, NodeId]] = field(default_factory=list)
    #: monotone position of this record in the ring (internal: the
    #: per-proposer index and window queries key on it).
    seq: int = 0


class LocalHistory:
    """Ring buffer of :class:`PeriodRecord`, bounded to ``n_h`` periods."""

    def __init__(self, max_periods: int) -> None:
        require(max_periods >= 1, "max_periods must be >= 1, got %d", max_periods)
        self.max_periods = max_periods
        self._slots: List[Optional[PeriodRecord]] = [None] * max_periods
        self._current: Optional[PeriodRecord] = None
        #: the open record's two logs (None before the first period).
        self.fanin: Optional[List[NodeId]] = None
        self.confirm_senders: Optional[List[Tuple[NodeId, NodeId]]] = None
        #: number of begin_period calls so far (== seq of the open record).
        self._seq = 0
        # proposer -> {seq -> chunk-id set} (the sets are shared with the
        # owning record's ``received_proposals``).
        self._received_idx: Dict[NodeId, Dict[int, Set[ChunkId]]] = {}

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
            record = PeriodRecord(period=period, seq=seq)
            self._slots[slot] = record
        else:
            self._evict(record)
            record.period = period
            record.seq = seq
            record.proposal = None
            record.fanin.clear()
            record.received_proposals.clear()
            record.confirm_senders.clear()
        self._current = record
        self.fanin = record.fanin
        self.confirm_senders = record.confirm_senders

    def _evict(self, record: PeriodRecord) -> None:
        """Unwind an overwritten record from the per-proposer index."""
        seq = record.seq
        received_idx = self._received_idx
        for proposer in record.received_proposals:
            per_seq = received_idx[proposer]
            del per_seq[seq]
            if not per_seq:
                del received_idx[proposer]

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
        record.proposal = (tuple(partners), tuple(chunk_ids))

    def record_received_proposal(self, proposer: NodeId, chunk_ids: Tuple[ChunkId, ...]) -> None:
        """Log a proposal received from ``proposer``."""
        record = self._current
        if record is None:
            self._ensure_open()
        seen = record.received_proposals.get(proposer)
        if seen is None:
            seen = record.received_proposals[proposer] = set()
            per_seq = self._received_idx.get(proposer)
            if per_seq is None:
                per_seq = self._received_idx[proposer] = {}
            per_seq[record.seq] = seen
        seen.update(chunk_ids)

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
        ``chunk_ids`` within the window?  Witnesses use this to answer
        confirm requests and a-posteriori polls."""
        try:
            per_seq = self._received_idx[proposer]
        except KeyError:
            return False
        wanted = set(chunk_ids)
        if last is None:
            for seen in per_seq.values():
                if wanted <= seen:
                    return True
            return False
        lo = self._seq - last + 1
        for seq in per_seq:
            if seq >= lo and wanted <= per_seq[seq]:
                return True
        return False

    def confirm_senders_about(self, proposer: NodeId, last: Optional[int] = None) -> List[NodeId]:
        """All verifiers that asked us about ``proposer`` in the window
        (oldest period first, arrival order within a period)."""
        return [
            verifier
            for record in self.records(last)
            for about, verifier in record.confirm_senders
            if about == proposer
        ]
