"""Local history auditing (§5.3) — entropy checks and the a-posteriori
cross-check.

An audit of ``target`` proceeds in two message phases, all over TCP
(reliable; the stakes — expulsion — are too high for a lossy channel):

1. ``AuditRequest`` → ``AuditResponse``: the target hands over its
   claimed propose history of the last ``n_h`` periods.  The auditor
   computes the fanout multiset ``F_h`` and its Shannon entropy, and
   counts propose events (a node that silently stretched its gossip
   period has too few).
2. ``HistoryPollRequest`` → ``HistoryPollResponse`` to every alleged
   partner: *(a)* each partner acknowledges (or denies) the proposal —
   a denial is blame 1, so forging honest names into the history does
   not pay (§5.3); *(b)* each partner reports which nodes asked it to
   confirm the target's proposals — the union is the fanin multiset
   ``F'_h``, which for an honest node matches its servers and for a
   man-in-the-middle colluder is concentrated on the coalition.

Verdict: the target is expelled if either entropy falls below ``γ``.
Wrongful poll blames caused by lost propose messages are compensated by
Eq. (4)'s expectation (``(1-p_r)·|entries|``) as a credit.

Entropy thresholds are calibrated for a full window of ``n_h·f``
entries; when the audited history is smaller (young node, quiet stream)
the threshold is lowered by the max-entropy shortfall
``log2(n_h f) - log2(|F_h|)`` so that short histories are not
auto-guilty.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.blames import (
    REASON_AUDIT_COMPENSATION,
    REASON_UNACKNOWLEDGED_HISTORY,
)
from repro.wire import (
    AuditRequest,
    AuditResponse,
    HistoryPollRequest,
    HistoryPollResponse,
)

NodeId = int


def shannon_entropy(counts: Counter) -> float:
    """Eq. (1): Shannon entropy (base 2) of a multiset given as
    occurrences per element, ``H = log2(T) - Σ c·log2(c) / T`` with
    ``T`` the total; 0.0 for an empty multiset."""
    total = counts.total()
    if total == 0:
        return 0.0
    entropy = math.log2(total) - sum(c * math.log2(c) for c in counts.values()) / total
    return entropy if entropy > 0.0 else 0.0


@dataclass
class AuditResult:
    """Outcome of one local-history audit."""

    target: NodeId
    responded: bool
    proposal_count: int = 0
    fanout_entropy: float = 0.0
    fanout_size: int = 0
    fanin_entropy: float = 0.0
    fanin_size: int = 0
    unacknowledged: int = 0
    polled_entries: int = 0
    #: fraction of distinct polled witnesses that reported at least one
    #: confirm sender about the target.  An honest node's partners all
    #: see confirm traffic about it (its servers cross-check with them);
    #: a man-in-the-middle freerider redirects that traffic to its
    #: coalition, so the honest partners in its claimed history report
    #: nothing — F'_h "asked the nodes in F_h" (§5.3) collapses.
    confirm_coverage: float = 0.0
    passed_fanout: bool = False
    passed_fanin: bool = False
    passed_period_count: bool = False
    passed_coverage: bool = False
    completed_at: float = 0.0

    @property
    def passed(self) -> bool:
        """Overall verdict — failing any check means expulsion (§5.3)."""
        return (
            self.responded
            and self.passed_fanout
            and self.passed_fanin
            and self.passed_period_count
            and self.passed_coverage
        )


@dataclass
class _AuditState:
    target: NodeId
    started_at: float
    on_complete: Optional[Callable[[AuditResult], None]]
    requested_periods: int
    proposals: Tuple = ()
    expected_polls: int = 0
    received_polls: int = 0
    unacknowledged: int = 0
    fanin: Counter = field(default_factory=Counter)
    polled_witnesses: Set[NodeId] = field(default_factory=set)
    witnesses_with_traffic: Set[NodeId] = field(default_factory=set)
    response_seen: bool = False
    finished: bool = False


class Auditor:
    """The auditor role: drives audits and judges their results.

    Hosted by a protocol node (same host interface as the verification
    engine, plus ``on_audit_verdict(target, result)`` which the cluster
    wires to the expulsion controller).
    """

    #: a node with fewer propose events than this fraction of the
    #: requested window fails the gossip-period check.
    PERIOD_COUNT_TOLERANCE = 0.5
    #: at p_dcc = 1 at least this fraction of polled witnesses must have
    #: seen confirm traffic about the target; scaled by p_dcc (a lower
    #: verification intensity legitimately leaves more witnesses blind),
    #: and disabled at p_dcc = 0.
    COVERAGE_THRESHOLD = 0.5
    #: extra wait for poll responses after the audit response arrives.
    POLL_TIMEOUT = 5.0
    #: wait for the audit response itself.
    RESPONSE_TIMEOUT = 5.0

    def __init__(self, host) -> None:
        self.host = host
        self._active: Dict[NodeId, _AuditState] = {}
        self.results: List[AuditResult] = []

    # ------------------------------------------------------------------
    # driving an audit
    # ------------------------------------------------------------------
    def start(
        self,
        target: NodeId,
        on_complete: Optional[Callable[[AuditResult], None]] = None,
    ) -> bool:
        """Begin auditing ``target``; False if one is already running."""
        if target in self._active:
            return False
        periods = self.host.lifting.history_periods
        self._active[target] = _AuditState(
            target=target,
            started_at=self.host.clock(),
            on_complete=on_complete,
            requested_periods=periods,
        )
        self.host.send(target, AuditRequest(periods=periods))
        self.host.call_later(self.RESPONSE_TIMEOUT, self._response_deadline, target)
        return True

    def _response_deadline(self, target: NodeId) -> None:
        state = self._active.get(target)
        if state is not None and not state.response_seen:
            # Refusing the audit is itself damning: fail every check.
            self._finalize(state)

    def on_audit_response(self, src: NodeId, response: AuditResponse) -> None:
        """The target's (possibly forged) history arrived."""
        state = self._active.get(src)
        if state is None or state.response_seen:
            return
        state.response_seen = True
        state.proposals = response.proposals
        polls = 0
        for period, partners, chunk_ids in response.proposals:
            # One poll message per history entry, fanned to all alleged
            # partners in one batched send (the per-destination draw
            # order and accounting match a per-partner send loop).
            poll = HistoryPollRequest(target=src, period=period, chunk_ids=chunk_ids)
            self.host.send_many(partners, poll)
            polls += len(partners)
        state.expected_polls = polls
        if polls == 0:
            self._finalize(state)
        else:
            self.host.call_later(self.POLL_TIMEOUT, self._poll_deadline, src)

    def on_poll_response(self, src: NodeId, response: HistoryPollResponse) -> None:
        """An alleged partner's testimony arrived."""
        state = self._active.get(response.target)
        if state is None or state.finished:
            return
        state.received_polls += 1
        if not response.acknowledged:
            state.unacknowledged += 1
        if src not in state.polled_witnesses:
            # Each witness reports its whole confirm-sender log about the
            # target once; count it a single time even when the witness
            # appears in several history periods.
            state.polled_witnesses.add(src)
            if response.confirm_senders:
                state.witnesses_with_traffic.add(src)
            state.fanin.update(response.confirm_senders)
        if state.received_polls >= state.expected_polls:
            self._finalize(state)

    def _poll_deadline(self, target: NodeId) -> None:
        state = self._active.get(target)
        if state is not None and not state.finished:
            self._finalize(state)

    # ------------------------------------------------------------------
    # judging
    # ------------------------------------------------------------------
    def _finalize(self, state: _AuditState) -> None:
        if state.finished:
            return
        state.finished = True
        self._active.pop(state.target, None)
        result = self._judge(state)
        self.results.append(result)
        self._apply_blames(state, result)
        self.host.on_audit_verdict(state.target, result)
        if state.on_complete is not None:
            state.on_complete(result)

    def _judge(self, state: _AuditState) -> AuditResult:
        lifting = self.host.lifting
        gossip = self.host.gossip
        full_window = lifting.history_periods * gossip.fanout

        # F_h, the claimed partners over the window, as occurrences per
        # partner: built once and read once, here.
        fanout = Counter(p for _period, partners, _chunk_ids in state.proposals for p in partners)

        result = AuditResult(
            target=state.target,
            responded=state.response_seen,
            completed_at=self.host.clock(),
        )
        if not state.response_seen:
            return result

        result.proposal_count = len(state.proposals)
        result.passed_period_count = (
            result.proposal_count
            >= self.PERIOD_COUNT_TOLERANCE * state.requested_periods
        )

        result.fanout_size = fanout.total()
        result.fanout_entropy = shannon_entropy(fanout)
        result.passed_fanout = result.fanout_size > 0 and (
            result.fanout_entropy
            >= self._effective_threshold(lifting.gamma, result.fanout_size, full_window)
        )

        result.fanin_size = state.fanin.total()
        result.fanin_entropy = shannon_entropy(state.fanin)
        # The aggregated witness logs repeat each server once per witness,
        # which rescales multiplicities uniformly and leaves the entropy
        # of the distribution intact.  The sample-size proxy for the
        # threshold shortfall must NOT come from the testimony content
        # (an attacker controls that); the number of polled history
        # entries is the honest measure of how much interaction the
        # window covers — for an honest node F'_h has about that many
        # underlying servers (§5.3: "is n_h f on average").
        result.passed_fanin = result.fanin_size > 0 and (
            result.fanin_entropy
            >= self._effective_threshold(lifting.gamma, max(1, state.expected_polls), full_window)
        )

        result.unacknowledged = state.unacknowledged
        result.polled_entries = state.expected_polls

        witnesses = max(1, len(state.polled_witnesses))
        result.confirm_coverage = len(state.witnesses_with_traffic) / witnesses
        required = self.COVERAGE_THRESHOLD * lifting.p_dcc
        result.passed_coverage = (
            state.polled_witnesses == set() or result.confirm_coverage >= required
        )
        return result

    @staticmethod
    def _effective_threshold(gamma: float, observed: int, full_window: int) -> float:
        """Lower γ by the max-entropy shortfall of a short history."""
        if observed <= 0:
            return gamma
        shortfall = max(0.0, math.log2(full_window) - math.log2(observed))
        return gamma - shortfall

    def _apply_blames(self, state: _AuditState, result: AuditResult) -> None:
        if not state.response_seen:
            return
        if result.unacknowledged > 0:
            self.host.send_blame(
                state.target, float(result.unacknowledged), REASON_UNACKNOWLEDGED_HISTORY
            )
        # Eq. (4): lost propose messages make honest entries unconfirmed;
        # credit the expectation so audits are score-neutral for honest
        # nodes on average.
        expected_wrongful = (1.0 - self.host.lifting.p_reception) * state.expected_polls
        if expected_wrongful > 0:
            self.host.send_blame(
                state.target, -expected_wrongful, REASON_AUDIT_COMPENSATION
            )


class AuditScheduler:
    """Sporadic audits: each period, with probability ``p_audit``, the
    hosting node audits a uniformly random peer (§5: "run sporadically").
    """

    def __init__(self, host, p_audit: float = 0.01) -> None:
        self.host = host
        self.p_audit = p_audit

    def on_period_tick(self) -> None:
        """Called by the host once per gossip period."""
        # Audits are *a posteriori*: before a full history window has
        # elapsed every node's log is legitimately short and the
        # gossip-period check would wrongly read as "stretched period".
        if self.host.period <= self.host.lifting.history_periods:
            return
        if self.host.random() >= self.p_audit:
            return
        candidates = self.host.sampler.sample(self.host.node_id, 1)
        if candidates:
            self.host.auditor.start(candidates[0])
