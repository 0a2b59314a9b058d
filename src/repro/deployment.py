"""One deployment, two hosts.

LiFTinG is one protocol evaluated on two hosts — the discrete-event
simulator and the asyncio socket runtime.  A :class:`Deployment` is
everything about a cluster that no host does differently: the role
split, the arming of the freeriders from a :mod:`repro.adversary`
policy, the membership directory, the manager assignment, the expulsion
controller, the churn monitor, the one place a
:class:`~repro.gossip.protocol.GossipNode` is constructed, the two
in-process verdict rules, the silent-failure lifecycle and the
read-outs.  :class:`~repro.experiments.cluster.SimCluster` and
:class:`~repro.runtime.cluster.RuntimeCluster` keep only their plane.

The *host* is the one contract the nodes already run on, satisfied by
:class:`~repro.sim.network.SimTransport` and
:class:`~repro.runtime.transport.AsyncTransport` under the same names
(``timeline``, ``call_later``, ``call_every``, ``send_many``), plus
``clock()`` and three fabric names: ``is_connected(id)``,
``disconnect(id)`` (reversible: a crash) and ``expel(id)`` (permanent).  Putting a node back on the fabric stays the
host's own step — it is a coroutine on the live plane — followed by
:meth:`Deployment.restarted`.  docs/RESILIENCE.md tabulates what each
plane binds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.adversary import AdversaryContext, BehaviorPolicy, create
from repro.config import GossipParams, LiftingParams
from repro.core.detector import ExpulsionController, ExpulsionRecord
from repro.core.invariants import InvariantMonitor
from repro.core.reputation import ManagerAssignment, ReputationManager, ScoreBoard
from repro.gossip.protocol import GossipNode
from repro.membership.failure_detector import (
    ChurnMonitor,
    FailureDetectorParams,
    apply_membership_event,
)
from repro.membership.full import FullMembership
from repro.metrics.scores import DetectionReport, detection_report
from repro.nodes.behavior import HonestBehavior
from repro.util.rng import SeedSequenceFactory

NodeId = int


def assign_roles(
    seeds: SeedSequenceFactory,
    n: int,
    freerider_fraction: float,
    degraded_fraction: float = 0.0,
) -> Tuple[Set[NodeId], Set[NodeId], Set[NodeId]]:
    """``(freerider_ids, honest_ids, degraded_ids)`` from the seed.

    One shuffle of ``range(n)`` on the ``"roles"`` stream: the first
    ``round(freerider_fraction * n)`` ids freeride, the rest are honest,
    and the first ``round(degraded_fraction * len(honest))`` of those
    have a poor connection.
    """
    shuffled = list(range(n))
    seeds.generator("roles").shuffle(shuffled)
    n_freeriders = int(round(freerider_fraction * n))
    honest = shuffled[n_freeriders:]
    n_degraded = int(round(degraded_fraction * len(honest)))
    return set(shuffled[:n_freeriders]), set(honest), set(honest[:n_degraded])


def adversary_policy(adversary: tuple) -> Optional[BehaviorPolicy]:
    """A fresh instance of the policy a config's ``adversary`` value
    (:func:`repro.adversary.spec`) selects, None for the empty one.
    Both configs call it at construction, so an unknown policy or a
    rejected parameter fails before anything is built or forked."""
    return create(*adversary) if adversary else None


class Deployment:
    """The protocol wiring of one cluster, on whichever host runs it."""

    def __init__(
        self,
        host,
        seeds: SeedSequenceFactory,
        gossip: GossipParams,
        lifting: LiftingParams,
        *,
        freerider_fraction: float = 0.0,
        degraded_fraction: float = 0.0,
        adversary: tuple = (),
        expulsion_enabled: bool = False,
        p_audit: float = 0.0,
        failure_detector: Optional[FailureDetectorParams] = None,
        audit_log=None,
    ) -> None:
        #: what the freeriders run (None = every node is honest).
        self.adversary_policy = adversary_policy(adversary)
        self.host = host
        self.seeds = seeds
        self.gossip = gossip
        self.lifting = lifting
        self.p_audit = p_audit
        self.failure_detector = failure_detector
        #: tamper-evident log fed by the managers, the membership
        #: transitions and the expulsions (None = nothing is logged).
        self.audit_log = audit_log

        self.node_ids: List[NodeId] = list(range(gossip.n))
        self.freerider_ids, self.honest_ids, self.degraded_ids = assign_roles(
            seeds, gossip.n, freerider_fraction, degraded_fraction
        )
        if self.adversary_policy is not None:
            self.adversary_policy.prepare(
                AdversaryContext(
                    freerider_ids=frozenset(self.freerider_ids),
                    honest_ids=frozenset(self.honest_ids),
                    rng=seeds.generator("adversary"),
                )
            )
        self.membership = FullMembership(seeds.generator("membership"), self.node_ids)
        self.assignment = ManagerAssignment(
            self.node_ids, lifting.managers, seeds.seed("managers")
        )
        #: with ``expulsion_enabled=False`` the controller observes:
        #: verdicts are recorded (Figure 14 reads them), never enforced.
        self.controller = ExpulsionController(
            host,
            [self.membership],
            enabled=expulsion_enabled,
            on_expel=self._log_expulsion if audit_log is not None else None,
        )
        self.churn_monitor: Optional[ChurnMonitor] = (
            ChurnMonitor(clock=host.clock) if failure_detector is not None else None
        )
        self.nodes: Dict[NodeId, GossipNode] = {}
        self.managers: Dict[NodeId, ReputationManager] = {}
        self.scoreboard = ScoreBoard(self.managers)

    def add_node(self, node_id: NodeId, **plane_kwargs) -> GossipNode:
        """Construct, wire and record one protocol node (not started).

        Freeriders run what the adversary policy builds, everyone else
        (and everyone, without a policy) is honest.  ``plane_kwargs`` are
        the :class:`GossipNode` arguments only a plane sets: the
        simulator's two LiFTinG switches (``lifting_enabled``,
        ``compensation``); the live plane passes none.
        """
        if self.adversary_policy is not None and node_id in self.freerider_ids:
            behavior = self.adversary_policy.build(node_id)
        else:
            behavior = HonestBehavior()
        node = GossipNode(
            node_id=node_id,
            transport=self.host,
            sampler=self.membership,
            gossip=self.gossip,
            lifting=self.lifting,
            behavior=behavior,
            assignment=self.assignment,
            rng=self.seeds.generator("node", node_id),
            on_expel_quorum=self.on_expel_quorum,
            p_audit=self.p_audit,
            detector=self.failure_detector,
            on_membership_event=self.on_membership_event,
            **plane_kwargs,
        )
        self.nodes[node_id] = node
        if node.manager is not None:
            node.manager.audit_log = self.audit_log
            self.managers[node_id] = node.manager
        return node

    # ------------------------------------------------------------------
    # in-process verdict rules: the callbacks are plain calls, so they
    # would happily carry verdicts from nodes the wire no longer hears
    # ------------------------------------------------------------------
    def on_expel_quorum(self, issuer: NodeId, target: NodeId, reason: str) -> None:
        """A manager quorum (or an auditor) convicted ``target``.

        An expelled issuer's timers keep running (a host cannot reach
        into closures), but it has lost all authority: its pending audit
        verdicts and quorum claims are void.
        """
        if self.controller.is_expelled(issuer):
            return
        self.controller.expel(target, reason)

    def on_membership_event(
        self, reporter: NodeId, node: NodeId, status: str, incarnation: int
    ) -> None:
        """Fold a node-local detector transition into the shared
        directory (the in-process stand-in for everyone applying the
        same disseminated update).

        Only connected members get a say: an expelled or crashed node's
        probes all time out and it "suspects" the whole cluster.
        """
        if self.controller.is_expelled(reporter) or not self.host.is_connected(
            reporter
        ):
            return
        apply_membership_event(
            self.membership,
            self.churn_monitor,
            reporter,
            node,
            status,
            incarnation,
            audit_log=self.audit_log,
        )

    def _log_expulsion(self, record: ExpulsionRecord) -> None:
        self.audit_log.append(
            "expulsion",
            target=int(record.node),
            reason=record.reason,
            enforced=record.enforced,
        )

    # ------------------------------------------------------------------
    # silent-failure lifecycle
    # ------------------------------------------------------------------
    def crash(self, node_id: NodeId) -> bool:
        """The node stops and drops off the fabric; nobody is told.

        The shared directory is *not* updated — peers must detect the
        crash (ping timeouts → suspicion → confirmation).  Returns
        False, counting nothing, when the node was already unreachable.
        """
        if not self.host.is_connected(node_id):
            return False
        self.nodes[node_id].stop()
        self.host.disconnect(node_id)
        if self.churn_monitor is not None:
            self.churn_monitor.on_crashed(node_id)
        return True

    def may_restart(self, node_id: NodeId) -> bool:
        """Whether the host should put ``node_id`` back on the fabric.

        Refused for an expelled node — the quorum's verdict outlives the
        crash (counted as ``rejoins_refused``) — and for one that is
        still connected: it never went down, and starting it again would
        arm a second period timer nobody can cancel.
        """
        if self.controller.is_expelled(node_id):
            if self.churn_monitor is not None:
                self.churn_monitor.on_rejoin_refused(node_id)
            return False
        return not self.host.is_connected(node_id)

    def restarted(self, node_id: NodeId) -> None:
        """The host reconnected ``node_id``: bring the node back up."""
        node = self.nodes[node_id]
        if node.failure_detector is not None:
            if not self.membership.contains(node_id):
                # Confirmed dead while down: readmit under the bumped
                # incarnation (the young-node audit rule covers the
                # fresh history).
                self.membership.readmit(node_id, node.failure_detector.incarnation + 1)
            self.fresh_incarnation(node_id)
        node.start()
        if self.churn_monitor is not None:
            self.churn_monitor.on_restarted(node_id)

    def fresh_incarnation(self, node_id: NodeId) -> None:
        """Drop every trace of the node's previous incarnation.

        Each peer's verification engine forgets the ack expectations
        naming the node and the node forgets its in-flight protocol
        state — the old incarnation must neither leak into the new one
        nor keep drawing blames against it.  Durable reputation records
        are untouched (absolute scores, §6.2).
        """
        for other in self.nodes.values():
            if other.engine is not None:
                other.engine.purge_requester(node_id)
        self.nodes[node_id].reset_gossip_state()

    # ------------------------------------------------------------------
    # read-outs
    # ------------------------------------------------------------------
    def scores(self) -> Dict[NodeId, float]:
        """Min-vote compensated scores of every node (§5.1's read)."""
        return self.scoreboard.scores(self.node_ids, self.assignment)

    def detection(self, eta: Optional[float] = None) -> DetectionReport:
        """Detection / false-positive report at threshold ``eta``."""
        threshold = self.lifting.eta if eta is None else eta
        return detection_report(self.scores(), self.freerider_ids, threshold)

    def expulsions(self) -> Tuple[List[NodeId], List[NodeId]]:
        """``(expelled, wrongful)``: the sorted ids of every node with an
        expulsion verdict (enforced, or only recorded when the
        controller observes) and those of them that were not freeriders."""
        expelled = sorted(self.controller.expelled_nodes())
        return expelled, [n for n in expelled if n not in self.freerider_ids]

    def churn_summary(self) -> Dict[str, object]:
        """Cluster-level churn/detector metrics (empty without a
        failure detector): the monitor's transition counters and
        convergence delays plus the aggregated quarantine outcome."""
        if self.churn_monitor is None:
            return {}
        managers = self.managers.values()
        detectors = [node.failure_detector for node in self.nodes.values()]
        summary = self.churn_monitor.summary()
        summary.update(
            suspected_now=len(self.membership.suspected_nodes()),
            quarantines_started=sum(m.quarantines_started for m in managers),
            quarantines_discarded=sum(m.quarantines_discarded for m in managers),
            quarantines_released=sum(m.quarantines_released for m in managers),
            records_in_quarantine=sum(m.suspected_records() for m in managers),
            quarantined_events_pending=sum(
                m.pending_quarantined_events() for m in managers
            ),
            probes_sent=sum(d.probes_sent for d in detectors),
            indirect_probes=sum(d.indirect_probes for d in detectors),
            local_suspicions=sum(d.suspicions_raised for d in detectors),
            local_refutations=sum(d.refutations_sent for d in detectors),
        )
        return summary

    def invariant_monitor(self) -> InvariantMonitor:
        """A safety-invariant monitor over this deployment's live
        state (read-only, RNG-free); the host decides when it sweeps."""
        return InvariantMonitor(
            managers=self.managers,
            honest_ids=self.honest_ids,
            adversary_ids=self.freerider_ids,
            is_expelled=self.controller.is_expelled,
            node_ids=self.node_ids,
            assignment=self.assignment,
            expel_quorum=self.lifting.expel_quorum,
            audit_logs=() if self.audit_log is None else (self.audit_log,),
            clock=self.host.clock,
        )
