"""Decentralised reputation — the Alliatrust-like substrate of §5.1.

Every node is assigned ``M`` pseudo-random *managers* that each keep a
copy of its score.  Blaming a node means sending a ``Blame`` message to
all of its managers; reading a score means querying the managers and
voting over the replies with **min** (resilient to lost blames and to
colluding managers inflating scores).  The very same managers decide
expulsion: each manager that locally observes the compensated score
below ``η`` (after the grace period) votes, and a quorum of votes expels
the node.

Wrongful-blame compensation (§6.2) is applied at read time: the
normalised score after ``r`` periods is::

    s = -(1/r) Σ (b_i - b̃) = b̃ - B/r

where ``B`` is the cumulative blame a manager recorded and ``b̃`` the
closed-form expectation of Eq. (5) under the deployment's assumed loss
rate.  Honest nodes therefore hover around 0 regardless of how lossy
the network is, which is what makes a *fixed* threshold usable.

State takes the representation its reader needs: a manager's ``M``
records are plain objects its handlers and per-period sweep walk in a
loop; the only array is the ``n·M`` blame snapshot :class:`ScoreBoard`
gathers per read (measured in docs/PERFORMANCE.md, "The PR 8 question,
part 2").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.wrongful_blames import expected_blame_honest
from repro.config import GossipParams, LiftingParams
from repro.util.rng import make_generator
from repro.util.validation import require

NodeId = int

#: seconds a :class:`ScoreReader` collects replies before it votes.
SCORE_QUERY_TIMEOUT = 1.0


class ManagerAssignment:
    """Deterministic node → managers map shared by the whole system.

    Derived from a seed so that every node computes the same assignment
    without coordination (in a deployment this would be consistent
    hashing over the membership; the paper only requires "M random
    managers").
    """

    def __init__(self, population: Sequence[NodeId], managers: int, seed: int) -> None:
        population = list(population)
        require(len(population) >= 2, "need at least 2 nodes for manager assignment")
        count = min(managers, len(population) - 1)
        require(count >= 1, "need at least 1 manager per node")
        self.managers_per_node = count
        rng = make_generator(seed, "manager-assignment")
        #: node -> its managers; read directly by the node's blame flush.
        self.managers: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._managed: Dict[NodeId, List[NodeId]] = {node: [] for node in population}
        arr = np.array(population)
        for node in population:
            others = arr[arr != node]
            picks = rng.choice(others, size=count, replace=False)
            managers_of_node = tuple(int(p) for p in picks)
            self.managers[node] = managers_of_node
            for manager in managers_of_node:
                self._managed[manager].append(node)

    def managers_of(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The managers holding ``node``'s score."""
        return self.managers[node] if node in self.managers else ()

    def managed_by(self, manager: NodeId) -> Tuple[NodeId, ...]:
        """The nodes whose score ``manager`` keeps."""
        return tuple(self._managed.get(manager, ()))

    def is_manager_of(self, manager: NodeId, node: NodeId) -> bool:
        """Whether ``manager`` holds a copy of ``node``'s score."""
        return manager in self.managers.get(node, ())


@dataclass(slots=True)
class ManagerRecord:
    """One manager's copy of one node's reputation state.

    Records are durable: the paper's scores are absolute, so they
    survive their target's crash / readmission untouched, and every
    target's periods ``r`` count from the run's epoch.

    ``suspected`` flips while the failure detector suspects the target:
    incoming blames are then diverted into the quarantine buffer
    (``quarantined_total`` / ``quarantined_events``) instead of the
    score, and the record is excluded from expulsion voting.  The
    buffer is folded into the score if the node is confirmed dead
    (silence is freerider-compatible) and discarded on refutation.
    """

    target: NodeId
    blame_total: float = 0.0
    blame_events: int = 0
    quarantined_total: float = 0.0
    quarantined_events: int = 0
    voted_expel: bool = False
    expelled: bool = False
    suspected: bool = False
    #: managers known to have voted to expel the target; expulsion is
    #: rare, so the set is created by the first vote.
    expel_votes: Optional[Set[NodeId]] = None

    def add_vote(self, voter: NodeId) -> int:
        """Register ``voter``'s expulsion vote; returns the distinct votes so far."""
        votes = self.expel_votes
        if votes is None:
            votes = self.expel_votes = set()
        votes.add(voter)
        return len(votes)


def compensation_per_period(gossip: GossipParams, lifting: LiftingParams) -> float:
    """``b̃`` — Eq. (5) under the deployment's assumed loss rate."""
    return expected_blame_honest(
        gossip.fanout, gossip.request_size, lifting.p_reception, lifting.p_dcc
    )


class ReputationManager:
    """The manager component hosted by every node.

    Parameters
    ----------
    owner:
        The hosting node's id.
    assignment:
        The global manager assignment.
    gossip, lifting:
        Protocol parameters (``T_g`` for period counting, ``η``,
        quorum, grace period...).
    now:
        Clock callable (bound to the simulator or the asyncio loop).
    compensation:
        Per-period wrongful-blame compensation ``b̃``; computed from the
        closed form when omitted.  Pass 0.0 to ablate compensation.
    """

    __slots__ = (
        "owner", "assignment", "gossip", "lifting", "now", "compensation", "records",
        "_quorum_votes", "audit_log", "quarantines_started", "quarantines_discarded",
        "quarantines_released", "rejected_blames",
    )

    def __init__(
        self,
        owner: NodeId,
        assignment: ManagerAssignment,
        gossip: GossipParams,
        lifting: LiftingParams,
        now: Callable[[], float],
        compensation: Optional[float] = None,
    ) -> None:
        self.owner = owner
        self.assignment = assignment
        self.gossip = gossip
        self.lifting = lifting
        self.now = now
        self.compensation = (
            compensation_per_period(gossip, lifting) if compensation is None else compensation
        )
        #: target -> record, in ``assignment.managed_by`` order — the
        #: order the expulsion sweep votes in.
        self.records: Dict[NodeId, ManagerRecord] = {
            target: ManagerRecord(target) for target in assignment.managed_by(owner)
        }
        self._quorum_votes = max(
            1, math.ceil(lifting.expel_quorum * assignment.managers_per_node)
        )
        #: optional tamper-evident trail (:class:`repro.core.auditlog.AuditLog`);
        #: when set, expulsion votes and quorum decisions are chained.
        self.audit_log = None
        # Quarantine outcome counters (scenario metrics read these).
        self.quarantines_started = 0
        self.quarantines_discarded = 0
        self.quarantines_released = 0
        #: non-finite blames dropped (one NaN would make a record unexpellable).
        self.rejected_blames = 0

    # ------------------------------------------------------------------
    # blame handling
    # ------------------------------------------------------------------
    def on_blame(self, target: NodeId, value: float) -> None:
        """Record a blame (positive) or a compensation credit (negative)."""
        try:
            record = self.records[target]
        except KeyError:
            return  # not a manager of this node; drop silently
        if not -math.inf < value < math.inf:
            self.rejected_blames += 1
            return
        if record.suspected:
            record.quarantined_total += value
            record.quarantined_events += 1
            return
        record.blame_total += value
        record.blame_events += 1

    def on_blame_message(self, src: NodeId, message) -> None:
        """Wire-level blame handler (dispatch-table entry point).

        Same effect as :meth:`on_blame`, with the body inlined: bound
        directly into the hosting node's dispatch table, a delivered
        ``Blame`` costs exactly this one frame.
        """
        try:
            record = self.records[message.target]
        except KeyError:
            return  # not a manager of this node; drop silently
        if not -math.inf < message.value < math.inf:
            self.rejected_blames += 1
            return
        if record.suspected:
            record.quarantined_total += message.value
            record.quarantined_events += 1
            return
        record.blame_total += message.value
        record.blame_events += 1

    def on_blame_batch(self, targets, values) -> None:
        """Apply one period's batched blames: :meth:`on_blame` per
        ``(target, value)`` pair, in order."""
        for target, value in zip(targets, values):
            self.on_blame(target, value)

    # ------------------------------------------------------------------
    # churn-aware blame quarantine (see membership.failure_detector)
    # ------------------------------------------------------------------
    def quarantine_target(self, target: NodeId) -> bool:
        """Start diverting blames against ``target`` into quarantine.

        Called when the local failure detector suspects the target: a
        silent node accrues blames exactly like a freerider, so holding
        them back is what protects an honest crash from wrongful
        expulsion.  Idempotent; False when not a manager of ``target``.
        """
        record = self.records.get(target)
        if record is None or record.suspected or record.expelled:
            return False
        record.suspected = True
        self.quarantines_started += 1
        if self.audit_log is not None:
            self.audit_log.append(
                "blame_quarantine",
                ts=self.now(),
                manager=int(self.owner),
                target=int(target),
            )
        return True

    def discard_quarantine(self, target: NodeId) -> bool:
        """The target refuted the suspicion: drop the held blames.

        The node was alive-but-slow (or partitioned); punishing it for
        the silent window would be exactly the wrongful blame Eq. (5)
        compensates for, so the buffer is discarded.
        """
        record = self.records.get(target)
        if record is None or not record.suspected:
            return False
        record.suspected = False
        dropped_total = record.quarantined_total
        dropped_events = record.quarantined_events
        record.quarantined_total = 0.0
        record.quarantined_events = 0
        self.quarantines_discarded += 1
        if self.audit_log is not None:
            self.audit_log.append(
                "quarantine_discard",
                ts=self.now(),
                manager=int(self.owner),
                target=int(target),
                dropped_total=float(dropped_total),
                dropped_events=int(dropped_events),
            )
        return True

    def release_quarantine(self, target: NodeId) -> bool:
        """The target was confirmed dead-then-silent: fold the held
        blames into its score.

        Persistent silence is freerider-compatible (a freerider that
        simply stops serving looks identical), so the blames count — if
        the node later rejoins with a bumped incarnation it starts from
        this score under the young-node audit rule.
        """
        record = self.records.get(target)
        if record is None or not record.suspected:
            return False
        record.suspected = False
        released_total = record.quarantined_total
        released_events = record.quarantined_events
        record.blame_total += released_total
        record.blame_events += released_events
        record.quarantined_total = 0.0
        record.quarantined_events = 0
        self.quarantines_released += 1
        if self.audit_log is not None:
            self.audit_log.append(
                "quarantine_release",
                ts=self.now(),
                manager=int(self.owner),
                target=int(target),
                released_total=float(released_total),
                released_events=int(released_events),
            )
        return True

    def periods_elapsed(self) -> float:
        """``r`` — gossip periods since the run's epoch."""
        return max(self.now() / self.gossip.gossip_period, 1e-9)

    def normalized_score(self, target: NodeId) -> Optional[float]:
        """Compensated, time-normalised score ``s = b̃ - B/r``.

        Returns None when this manager does not manage ``target``.
        """
        record = self.records.get(target)
        if record is None:
            return None
        return self.compensation - record.blame_total / self.periods_elapsed()

    # ------------------------------------------------------------------
    # expulsion voting
    # ------------------------------------------------------------------
    def expulsion_candidates(self) -> List[NodeId]:
        """Managed nodes this manager should now vote to expel.

        Marks them as voted so each manager votes at most once.  Runs
        once per gossip period over the ``M`` managed records, in
        ``records`` order, with the scalar operations of
        :meth:`periods_elapsed` / :meth:`normalized_score` inlined.
        """
        candidates: List[NodeId] = []
        now = self.now()
        r = now / self.gossip.gossip_period
        if r < 1e-9:
            r = 1e-9
        if r < self.lifting.min_periods_before_expel:
            return candidates  # the grace period covers every record alike
        eta = self.lifting.eta
        compensation = self.compensation
        for target, record in self.records.items():
            if record.voted_expel or record.expelled or record.suspected:
                continue
            score = compensation - record.blame_total / r
            if score < eta:
                record.voted_expel = True
                record.add_vote(self.owner)
                candidates.append(target)
                if self.audit_log is not None:
                    self.audit_log.append(
                        "expel_vote",
                        ts=now,
                        voter=int(self.owner),
                        target=int(target),
                        score=float(score),
                    )
        return candidates

    def on_expel_vote(self, voter: NodeId, target: NodeId) -> bool:
        """Register a co-manager's vote; True when the quorum is reached.

        Returns True exactly once (the record is then marked expelled so
        duplicate quorums don't re-trigger).
        """
        record = self.records.get(target)
        if record is None or record.expelled:
            return False
        if record.add_vote(voter) >= self._quorum_votes:
            record.expelled = True
            if self.audit_log is not None:
                self.audit_log.append(
                    "expel_quorum",
                    ts=self.now(),
                    manager=int(self.owner),
                    target=int(target),
                    votes=sorted(int(v) for v in record.expel_votes),
                )
            return True
        return False

    def suspected_records(self) -> int:
        """Records currently holding a quarantine."""
        return sum([record.suspected for record in self.records.values()])

    def pending_quarantined_events(self) -> int:
        """Blame events sitting in quarantine buffers."""
        return sum([record.quarantined_events for record in self.records.values()])

    def mark_expelled(self, target: NodeId) -> None:
        """Note that ``target`` was expelled (stops further voting)."""
        record = self.records.get(target)
        if record is not None:
            record.expelled = True


class ScoreReader:
    """Message-based min-vote score reads (§5.1's protocol flavour).

    The oracle :class:`ScoreBoard` reads manager state directly (used by
    metrics); this component performs the real thing — a ``ScoreQuery``
    fan-out to the target's managers, a timeout, and a **min** vote over
    the replies.  Hosted by a protocol node (same host facade as the
    verification engine).
    """

    __slots__ = ("host", "_queries", "_counter")

    def __init__(self, host) -> None:
        self.host = host
        self._queries: Dict[int, dict] = {}
        self._counter = 0

    def query(self, target: NodeId, callback: Callable[[Optional[float]], None]) -> None:
        """Read ``target``'s score; ``callback(None)`` if nobody replied."""
        from repro.wire import ScoreQuery

        self._counter += 1
        query_id = self._counter
        managers = self.host.assignment.managers_of(target)
        self._queries[query_id] = {"target": target, "values": [], "callback": callback}
        for manager_id in managers:
            if manager_id == self.host.node_id and self.host.manager is not None:
                value = self.host.manager.normalized_score(target)
                if value is not None:
                    self._queries[query_id]["values"].append(value)
            else:
                self.host.send(manager_id, ScoreQuery(target=target))
        self.host.call_later(SCORE_QUERY_TIMEOUT, self._finish, query_id)

    def on_reply(self, src: NodeId, target: NodeId, score: float, known: bool) -> None:
        """Collect a manager's reply into every open query for ``target``."""
        if not known:
            return
        for state in self._queries.values():
            if state["target"] == target:
                state["values"].append(score)

    def _finish(self, query_id: int) -> None:
        state = self._queries.pop(query_id, None)
        if state is None:
            return
        values = state["values"]
        state["callback"](min(values) if values else None)


class ScoreBoard:
    """Min-vote score reads over a collection of managers.

    In the deployment this is a ``ScoreQuery`` fan-out; for metrics we
    read the manager states directly (same values, no extra traffic) —
    the vote function is the paper's **min** either way.

    :meth:`scores` is the hot read of every detection / score-CDF
    experiment (it runs once per snapshot over the whole population), so
    it gathers the ``n·M`` blame totals into one array and computes all
    compensated scores in one vectorised numpy pass over a cached
    ``(target, manager-record)`` layout instead of per-node Python
    loops.  The arithmetic is the same IEEE operations as
    :meth:`ReputationManager.normalized_score`, so the values are
    bit-identical to the scalar path (pinned by
    ``tests/core/test_reputation.py``).
    """

    def __init__(self, managers_by_node: Dict[NodeId, ReputationManager]) -> None:
        self._managers = managers_by_node
        #: (assignment, targets) -> flattened static layout; the record
        #: topology never changes after construction, only blame totals.
        #: Keyed by the assignment object itself (identity hash) — not
        #: id() — so a dead assignment's reused address can never alias
        #: a stale layout.
        self._layouts: Dict[tuple, tuple] = {}

    def score(self, target: NodeId, assignment: ManagerAssignment) -> Optional[float]:
        """Min over the scores returned by ``target``'s managers."""
        values: List[float] = []
        for manager_id in assignment.managers_of(target):
            manager = self._managers.get(manager_id)
            if manager is None:
                continue
            value = manager.normalized_score(target)
            if value is not None:
                values.append(value)
        if not values:
            return None
        return min(values)

    def _layout(self, targets: Tuple[NodeId, ...], assignment: ManagerAssignment):
        """Flatten the (target, manager-record) pairs for ``targets``.

        Returns ``(kept_targets, records, managers, compensation,
        periods, starts)`` where ``starts`` are the segment
        offsets of each kept target's records in the flat arrays.
        Targets with no reachable manager record are dropped (mirroring
        the scalar path's "missing ones omitted").
        """
        key = (assignment, targets)
        cached = self._layouts.get(key)
        if cached is not None:
            return cached
        kept: List[NodeId] = []
        records: List[ManagerRecord] = []
        managers: List[ReputationManager] = []
        starts: List[int] = []
        for target in targets:
            begin = len(records)
            for manager_id in assignment.managers_of(target):
                manager = self._managers.get(manager_id)
                if manager is None:
                    continue
                record = manager.records.get(target)
                if record is None:
                    continue
                records.append(record)
                managers.append(manager)
            if len(records) > begin:
                kept.append(target)
                starts.append(begin)
        compensation = np.array([m.compensation for m in managers], dtype=float)
        periods = np.array([m.gossip.gossip_period for m in managers], dtype=float)
        layout = (
            tuple(kept),
            tuple(records),
            tuple(managers),
            compensation,
            periods,
            np.array(starts, dtype=np.intp),
        )
        self._layouts[key] = layout
        return layout

    def ingest_blames(
        self,
        assignment: ManagerAssignment,
        targets,
        values,
    ) -> int:
        """Batch-apply arrays of ``(target, value)`` blames.

        Routes every blame to all of its target's reachable managers —
        the offline/replay equivalent of delivering one ``Blame``
        message per (blame, manager) pair (used by the Monte-Carlo
        replay flow, ``examples/blame_replay.py``), collapsed into a
        single pass:
        per-target totals and event counts are aggregated first (one
        numpy reduction), then each manager record receives one
        ``blame_total`` addition.  Score reads after a full batch match
        the per-message path up to float summation order (documented
        ulp-level reassociation; the per-message path adds values one at
        a time).  Returns the number of blame events routed to at least
        one manager record.
        """
        targets = np.asarray(targets)
        values = np.asarray(values, dtype=float)
        require(targets.shape == values.shape, "targets/values length mismatch")
        if targets.size == 0:
            return 0
        unique, inverse = np.unique(targets, return_inverse=True)
        totals = np.zeros(unique.size)
        np.add.at(totals, inverse, values)
        counts = np.bincount(inverse, minlength=unique.size)
        routed = 0
        managers = self._managers
        for target, total, events in zip(unique, totals, counts):
            target = int(target)
            hit = False
            for manager_id in assignment.managers_of(target):
                manager = managers.get(manager_id)
                if manager is None:
                    continue
                record = manager.records.get(target)
                if record is None:
                    continue
                record.blame_total += float(total)
                record.blame_events += int(events)
                hit = True
            if hit:
                routed += int(events)
        return routed

    def scores(
        self, targets: Iterable[NodeId], assignment: ManagerAssignment
    ) -> Dict[NodeId, float]:
        """Min-vote scores for many targets (missing ones omitted)."""
        kept, records, managers, compensation, periods, starts = self._layout(
            tuple(targets), assignment
        )
        if not kept:
            return {}
        # All managers share the experiment clock; evaluate it once so
        # the snapshot is taken at a single instant (as the scalar loop
        # does within one event-loop step).
        now = managers[0].now()
        blame = np.fromiter(
            (record.blame_total for record in records),
            dtype=float,
            count=len(records),
        )
        elapsed = np.maximum(now / periods, 1e-9)
        values = compensation - blame / elapsed
        minima = np.minimum.reduceat(values, starts)
        return {target: float(value) for target, value in zip(kept, minima)}
