"""Runtime assertion of LiFTinG's safety properties.

The paper argues safety statistically (wrongful blames are compensated,
expulsion needs a manager quorum plus a grace period); this monitor
turns the argument into *checked invariants* so a simulation or chaos
run fails loudly — in metrics, not stack traces — the moment the
implementation drifts from it:

``wrongful_expulsion``
    No honest node is expelled while the honest quorum holds: whenever
    the adversarial managers of a target are too few to form an
    expulsion quorum on their own, an expulsion of an honest target
    means honest managers voted it out — the exact failure the
    compensation term exists to prevent.
``score_monotonicity``
    A record's blame event count never decreases, and its blame total
    only moves when an event is recorded — scores change through
    blames, never through silent mutation.
``quarantine_conservation``
    Per manager, ``started - discarded - released`` equals the records
    currently suspended, and no quarantine buffer survives outside a
    suspension — held blames are eventually folded in or dropped,
    never duplicated or leaked.
``expulsion_permanence``
    Expulsion is forever: once a node is seen expelled it never comes
    back.
``audit_chain``
    Every attached tamper-evident audit log still verifies end to end.

The monitor is strictly read-only and draws no randomness, so attaching
it cannot perturb a deterministic run — un-monitored goldens stay
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

NodeId = int


@dataclass(frozen=True)
class Violation:
    """One observed breach of a safety invariant."""

    invariant: str
    detail: str
    at: float


class InvariantMonitor:
    """Sweeps a deployment's reputation plane for safety violations.

    Construct once over the live manager objects, then call
    :meth:`check` periodically (and once at the end of the run); each
    call returns the violations *new* to that sweep and accumulates
    them in :attr:`violations`.
    """

    def __init__(
        self,
        *,
        managers: Dict[NodeId, object],
        honest_ids: Iterable[NodeId],
        adversary_ids: Iterable[NodeId] = (),
        is_expelled: Callable[[NodeId], bool],
        node_ids: Iterable[NodeId],
        assignment=None,
        expel_quorum: float = 0.5,
        audit_logs: Iterable[object] = (),
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.managers = dict(managers)
        self.honest_ids = frozenset(honest_ids)
        self.adversary_ids = frozenset(adversary_ids)
        self.is_expelled = is_expelled
        self.node_ids = tuple(node_ids)
        self.assignment = assignment
        self.expel_quorum = expel_quorum
        self.audit_logs = tuple(audit_logs)
        self.clock = clock

        self.violations: List[Violation] = []
        self.checks = 0
        #: per (manager, target): last seen (blame_events, blame_total).
        self._last_blame: Dict[Tuple[NodeId, NodeId], Tuple[int, float]] = {}
        self._seen_expelled: Set[NodeId] = set()
        self._flagged: Set[Tuple[str, str]] = set()

    # ------------------------------------------------------------------
    def _emit(self, invariant: str, detail: str, out: List[Violation]) -> None:
        key = (invariant, detail)
        if key in self._flagged:
            return  # report each distinct breach once, not once per sweep
        self._flagged.add(key)
        violation = Violation(invariant, detail, self.clock())
        self.violations.append(violation)
        out.append(violation)

    def _honest_quorum_holds(self, target: NodeId) -> bool:
        """True when adversarial managers alone cannot expel ``target``."""
        if self.assignment is None:
            return True  # conservatively: any honest expulsion is wrongful
        managers = self.assignment.managers_of(target)
        if not managers:
            return True
        adversarial = sum(1 for m in managers if m in self.adversary_ids)
        return adversarial / len(managers) < self.expel_quorum

    # ------------------------------------------------------------------
    def check(self) -> List[Violation]:
        """One sweep; returns the violations first observed now."""
        self.checks += 1
        fresh: List[Violation] = []

        # wrongful expulsion + expulsion permanence -------------------
        for node_id in self.node_ids:
            expelled = self.is_expelled(node_id)
            if expelled and node_id not in self._seen_expelled:
                self._seen_expelled.add(node_id)
                if node_id in self.honest_ids and self._honest_quorum_holds(node_id):
                    self._emit(
                        "wrongful_expulsion",
                        f"honest node {node_id} expelled under an honest quorum",
                        fresh,
                    )
            elif not expelled and node_id in self._seen_expelled:
                self._emit(
                    "expulsion_permanence",
                    f"node {node_id} expelled earlier is no longer expelled",
                    fresh,
                )

        # score monotonicity + quarantine conservation ----------------
        for owner, manager in self.managers.items():
            for target, record in manager.records.items():
                events = record.blame_events
                total = record.blame_total
                key = (owner, target)
                last = self._last_blame.get(key)
                if last is not None:
                    last_events, last_total = last
                    if events < last_events:
                        self._emit(
                            "score_monotonicity",
                            f"manager {owner}: blame_events for {target} "
                            f"fell {last_events} -> {events}",
                            fresh,
                        )
                    elif events == last_events and total != last_total:
                        self._emit(
                            "score_monotonicity",
                            f"manager {owner}: blame_total for {target} moved "
                            f"{last_total!r} -> {total!r} without an event",
                            fresh,
                        )
                self._last_blame[key] = (events, total)
                if not record.suspected and record.quarantined_events:
                    self._emit(
                        "quarantine_conservation",
                        f"manager {owner}: {record.quarantined_events} quarantined "
                        f"events held for {target} outside a suspension",
                        fresh,
                    )
            active = (
                manager.quarantines_started
                - manager.quarantines_discarded
                - manager.quarantines_released
            )
            if active != manager.suspected_records():
                self._emit(
                    "quarantine_conservation",
                    f"manager {owner}: {active} open quarantines but "
                    f"{manager.suspected_records()} suspended records",
                    fresh,
                )

        # audit-chain validity ----------------------------------------
        for log in self.audit_logs:
            report = log.verify_all()
            if not report.ok:
                self._emit(
                    "audit_chain",
                    f"audit log failed verification: {report}",
                    fresh,
                )

        return fresh

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Metrics-ready aggregate: sweep count and violation tallies."""
        by_invariant: Dict[str, int] = {}
        for violation in self.violations:
            by_invariant[violation.invariant] = (
                by_invariant.get(violation.invariant, 0) + 1
            )
        return {
            "checks": self.checks,
            "violations": len(self.violations),
            "by_invariant": by_invariant,
        }
