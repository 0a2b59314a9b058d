"""Build and drive a complete simulated deployment.

:class:`SimCluster` is the testbed-in-a-box used by the PlanetLab-style
experiments (Figures 1, 14, Tables 3, 5): a discrete-event simulator, a
lossy network with per-node heterogeneity, a stream source, ``n``
protocol nodes with configured roles (honest / freerider / colluder /
degraded), the manager assignment and the expulsion controller.

Roles are assigned pseudo-randomly from the seed, so a cluster is fully
reproducible from its :class:`ClusterConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set

from repro.config import (
    FreeriderDegree,
    GossipParams,
    HONEST_DEGREE,
    LiftingParams,
)
from repro.core.detector import ExpulsionController
from repro.core.reputation import (
    ManagerAssignment,
    ReputationPool,
    ScoreBoard,
    compensation_per_period,
)
from repro.core.soa import DenseIdRegistry, ProtocolStatePool
from repro.gossip.chunks import StreamSource
from repro.gossip.protocol import GossipNode, SimTransport
from repro.membership.failure_detector import (
    ChurnMonitor,
    FailureDetectorParams,
    apply_membership_event,
)
from repro.membership.full import FullMembership
from repro.metrics.health import HealthReport, health_curve
from repro.metrics.overhead import OverheadReport, bandwidth_overhead
from repro.metrics.scores import DetectionReport, detection_report
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import Coalition, ColludingBehavior
from repro.nodes.freerider import FreeriderBehavior
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.loss import PerNodeLoss
from repro.sim.network import Network
from repro.util.rng import SeedSequenceFactory
from repro.util.validation import require, require_probability

NodeId = int


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to reproduce a deployment run."""

    gossip: GossipParams
    lifting: LiftingParams
    seed: int = 0
    #: base i.i.d. datagram loss (4 % ≈ the PlanetLab average).
    loss_rate: float = 0.04
    #: one-way latency drawn uniformly from this range (seconds).
    latency_range: tuple = (0.01, 0.08)
    #: upload capacity in bytes/s for regular nodes (None = unlimited).
    upload_rate: Optional[float] = None

    # --- adversary population ---------------------------------------
    freerider_fraction: float = 0.0
    freerider_degree: FreeriderDegree = HONEST_DEGREE
    colluding: bool = False
    collusion_bias: float = 0.0
    man_in_the_middle: bool = False
    forge_history: bool = False
    period_stride: int = 1
    #: named adversary policy armed on the freerider population (see
    #: :mod:`repro.adversary`); empty = the legacy degree/colluding
    #: switches above.  ``adversary_params`` is a tuple of ``(key,
    #: value)`` pairs forwarded to the policy constructor (a tuple, not
    #: a dict, to keep the config frozen and hashable).
    adversary: str = ""
    adversary_params: tuple = ()

    # --- PlanetLab-style heterogeneity -------------------------------
    #: fraction of *honest* nodes with a poor connection.
    degraded_fraction: float = 0.0
    #: extra endpoint loss applied to degraded nodes.
    degraded_loss: float = 0.15
    #: upload capacity of degraded nodes (bytes/s; None = same).
    degraded_upload: Optional[float] = None

    # --- LiFTinG switches --------------------------------------------
    lifting_enabled: bool = True
    expulsion_enabled: bool = False
    #: per-period compensation b̃; None = closed form, 0.0 = ablated.
    compensation: Optional[float] = None
    #: probability that a node starts a sporadic local-history audit of
    #: a random peer each gossip period (§5: "run sporadically").
    p_audit: float = 0.0
    #: SWIM-style failure detection (None = off, the legacy behaviour:
    #: crashes are oracle-removed from membership).  When set, crashes
    #: go *undetected* until peers suspect and confirm them, suspects'
    #: blames are quarantined, and restarts rejoin with a bumped
    #: incarnation — see membership/failure_detector.py.
    failure_detector: Optional[FailureDetectorParams] = None

    def __post_init__(self) -> None:
        require_probability(self.freerider_fraction, "freerider_fraction")
        require_probability(self.degraded_fraction, "degraded_fraction")
        require_probability(self.loss_rate, "loss_rate")
        require(self.period_stride >= 1, "period_stride must be >= 1")

    def with_changes(self, **changes) -> "ClusterConfig":
        """A modified copy (sweeps use this)."""
        return replace(self, **changes)


class SimCluster:
    """A fully wired simulated deployment."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        gossip, lifting = config.gossip, config.lifting
        seeds = SeedSequenceFactory(config.seed)
        self.seeds = seeds

        self.sim = Simulator()
        self.loss = PerNodeLoss(seeds.generator("loss"), base=config.loss_rate)
        low, high = config.latency_range
        self.latency = UniformLatency(seeds.generator("latency"), low, high)
        self.network = Network(self.sim, latency=self.latency, loss=self.loss)
        self.trace = self.network.trace

        node_ids = list(range(gossip.n))
        self.node_ids = node_ids

        # --- roles ----------------------------------------------------
        role_rng = seeds.generator("roles")
        n_freeriders = int(round(config.freerider_fraction * gossip.n))
        shuffled = list(node_ids)
        role_rng.shuffle(shuffled)
        self.freerider_ids: Set[NodeId] = set(shuffled[:n_freeriders])
        honest_pool = shuffled[n_freeriders:]
        n_degraded = int(round(config.degraded_fraction * len(honest_pool)))
        self.degraded_ids: Set[NodeId] = set(honest_pool[:n_degraded])
        self.honest_ids: Set[NodeId] = set(honest_pool)

        # --- shared services -------------------------------------------
        # Dense-id registry + struct-of-arrays pools: every node's hot
        # transient state is a slot in one cluster-owned pool, and every
        # manager's records are a row block in one reputation pool.  The
        # registry remaps slots on readmission (see _remap_node_state).
        self.registry = DenseIdRegistry()
        self.state_pool = ProtocolStatePool(capacity=gossip.n)
        self.registry.attach(self.state_pool)
        self.reputation_pool = ReputationPool(
            capacity=gossip.n * min(lifting.managers, gossip.n - 1)
        )
        self.membership = FullMembership(seeds.generator("membership"), node_ids)
        self.assignment = ManagerAssignment(
            node_ids, lifting.managers, seeds.seed("managers")
        )
        self.controller = ExpulsionController(
            self.network, [self.membership], enabled=config.expulsion_enabled
        )
        self.compensation = (
            compensation_per_period(gossip, lifting)
            if config.compensation is None
            else config.compensation
        )
        self.churn_monitor: Optional[ChurnMonitor] = (
            ChurnMonitor(clock=lambda: self.sim.now)
            if config.failure_detector is not None
            else None
        )

        # --- source -----------------------------------------------------
        self.source = StreamSource(self.sim, self.network, self.membership, gossip)
        self.network.register(self.source)

        # --- adversary policy -------------------------------------------
        self.adversary_policy = None
        if config.adversary:
            from repro import adversary as adversary_pkg

            self.adversary_policy = adversary_pkg.create(
                config.adversary, dict(config.adversary_params)
            )
            self.adversary_policy.prepare(
                adversary_pkg.AdversaryContext(
                    gossip=gossip,
                    lifting=lifting,
                    freerider_ids=frozenset(self.freerider_ids),
                    honest_ids=frozenset(self.honest_ids),
                    rng=seeds.generator("adversary"),
                )
            )

        # --- nodes -------------------------------------------------------
        coalition = Coalition(self.freerider_ids) if config.colluding else None
        transport = SimTransport(self.sim, self.network)
        self.nodes: Dict[NodeId, GossipNode] = {}
        for node_id in node_ids:
            behavior = self._make_behavior(node_id, coalition)
            state_slot = self.registry.register(node_id)
            node = GossipNode(
                node_id=node_id,
                transport=transport,
                sampler=self.membership,
                gossip=gossip,
                lifting=lifting,
                behavior=behavior,
                assignment=self.assignment,
                rng=seeds.generator("node", node_id),
                lifting_enabled=config.lifting_enabled,
                compensation=self.compensation,
                chunk_created_at=self.source.created_times.__getitem__,
                on_expel_quorum=self._on_expel_quorum,
                p_audit=config.p_audit,
                detector=config.failure_detector,
                on_membership_event=(
                    self._on_membership_event
                    if config.failure_detector is not None
                    else None
                ),
                state_pool=self.state_pool,
                state_slot=state_slot,
                reputation_pool=self.reputation_pool,
            )
            self.nodes[node_id] = node
            upload = config.upload_rate if config.upload_rate is not None else math.inf
            if node_id in self.degraded_ids:
                self.loss.set_node_loss(node_id, config.degraded_loss)
                if config.degraded_upload is not None:
                    upload = config.degraded_upload
            self.network.register(node, upload_rate=upload)

        self.scoreboard = ScoreBoard(
            {nid: node.manager for nid, node in self.nodes.items() if node.manager}
        )
        self._started = False

    def _make_behavior(self, node_id: NodeId, coalition: Optional[Coalition]):
        config = self.config
        if node_id not in self.freerider_ids:
            return HonestBehavior()
        if self.adversary_policy is not None:
            return self.adversary_policy.build(node_id)
        if coalition is not None:
            return ColludingBehavior(
                config.freerider_degree,
                coalition,
                bias=config.collusion_bias,
                man_in_the_middle=config.man_in_the_middle,
                forge_history=config.forge_history,
                period_stride=config.period_stride,
            )
        return FreeriderBehavior(config.freerider_degree, period_stride=config.period_stride)

    def _on_expel_quorum(self, issuer: NodeId, target: NodeId, reason: str) -> None:
        # An expelled node keeps its local timers running (the simulator
        # cannot reach into closures), but it has lost all authority: its
        # pending audit verdicts and quorum claims are void.
        if self.controller.is_expelled(issuer):
            return
        self.controller.expel(target, reason)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the source and every node (idempotent)."""
        if self._started:
            return
        self._started = True
        self.source.start(first_at=0.05)
        for node in self.nodes.values():
            node.start()

    def run(self, until: float, profile_to: Optional[str] = None) -> None:
        """Advance simulated time to ``until`` (starting if needed).

        ``profile_to`` dumps sorted ``cProfile`` stats of the advance to
        that path — the evidence-gathering hook behind the CLI's
        ``--profile`` flag (see docs/PERFORMANCE.md).
        """
        self.start()
        from repro.util.profiling import maybe_profile

        with maybe_profile(profile_to):
            self.sim.run(until=until)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def scores(self) -> Dict[NodeId, float]:
        """Min-vote compensated scores of every node (§5.1's read)."""
        return self.scoreboard.scores(self.node_ids, self.assignment)

    def detection(self, eta: Optional[float] = None) -> DetectionReport:
        """Detection / false-positive report at threshold ``eta``."""
        threshold = self.config.lifting.eta if eta is None else eta
        return detection_report(self.scores(), self.freerider_ids, threshold)

    def health(
        self, *, lags=None, coverage: float = 0.99, window=None, include=None
    ) -> HealthReport:
        """Figure 1's health curve over (a subset of) the nodes."""
        if include is None:
            nodes = list(self.nodes.values())
        else:
            nodes = [self.nodes[nid] for nid in include]
        return health_curve(nodes, self.source, lags=lags, coverage=coverage, window=window)

    def overhead(self, duration: Optional[float] = None) -> OverheadReport:
        """Table 5's bandwidth-overhead report for the run so far."""
        elapsed = self.sim.now if duration is None else duration
        return bandwidth_overhead(self.trace, elapsed, self.config.gossip.n)

    def node(self, node_id: NodeId) -> GossipNode:
        """Access one protocol node."""
        return self.nodes[node_id]

    def alive_ids(self) -> List[NodeId]:
        """Node ids not (yet) expelled."""
        return [nid for nid in self.node_ids if not self.controller.is_expelled(nid)]

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def _on_membership_event(
        self, reporter: NodeId, node: NodeId, status: str, incarnation: int
    ) -> None:
        """A node-local detector transition; fold it into the shared
        directory (the in-process stand-in for everyone applying the
        same disseminated update)."""
        # The callback is in-process, so it would happily carry verdicts
        # from nodes the network can no longer hear: an expelled node's
        # probes all time out and it "suspects" the whole cluster.  Only
        # connected members get a say.
        if self.controller.is_expelled(reporter) or not self.network.is_connected(
            reporter
        ):
            return
        apply_membership_event(
            self.membership, self.churn_monitor, reporter, node, status, incarnation
        )

    def leave(self, node_id: NodeId) -> bool:
        """A node departs gracefully: announce, stop, deregister.

        Unlike expulsion this is not recorded as a sanction; other nodes
        simply stop sampling it.  Returns False (and does nothing) when
        the node is already gone — a double leave is a no-op.
        """
        if not self.membership.contains(node_id):
            return False
        node = self.nodes[node_id]
        if node.failure_detector is not None:
            node.failure_detector.announce_leave()
        node.stop()
        self.network.disconnect(node_id)
        self.membership.mark_left(node_id)
        if self.churn_monitor is not None:
            self.churn_monitor.on_left(node_id)
        return True

    def rejoin(self, node_id: NodeId) -> bool:
        """A departed node comes back (fresh gossip state, same score
        record — the paper's absolute scores make returning nodes
        comparable to incumbents, §6.2).

        Refused (returns False) for expelled nodes: expulsion is
        permanent, enforced by the membership lifecycle ledger.
        """
        if self.controller.is_expelled(node_id):
            if self.churn_monitor is not None:
                self.churn_monitor.on_rejoin_refused(node_id)
            return False
        node = self.nodes[node_id]
        incarnation = 0
        if node.failure_detector is not None:
            # start() below bumps the incarnation; register the bumped
            # value so stale suspicions cannot instantly re-evict.
            incarnation = node.failure_detector.incarnation + 1
        if not self.membership.readmit(node_id, incarnation):
            return False
        self.network.reconnect(node_id)
        if node.failure_detector is not None:
            self._remap_node_state(node_id)
            node.reset_gossip_state()
        node.start()
        if self.churn_monitor is not None:
            self.churn_monitor.on_rejoined(node_id)
        return True

    def _remap_node_state(self, node_id: NodeId) -> None:
        """Move a readmitted node onto a fresh pooled state slot.

        The registry retires the old slot (zeroing its columns in every
        attached pool) so the bumped incarnation starts clean, and every
        peer's verification engine drops stale ack expectations naming
        the node — state from the previous incarnation must neither leak
        into the new one nor keep drawing blames against it.  Durable
        reputation records are untouched (absolute scores, §6.2).
        """
        node = self.nodes[node_id]
        node.adopt_state_slot(self.registry.remap(node_id))
        for other in self.nodes.values():
            engine = other.engine
            if engine is not None:
                engine.purge_requester(node_id)

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def attach_faults(self, schedule) -> "object":
        """Arm a :class:`~repro.runtime.faults.FaultSchedule`.

        Window faults (drops, partitions, slow links) are enforced by a
        :class:`~repro.runtime.faults.FaultPlane` hooked into the
        network's send path; crash/restart instants are scheduled as
        simulator timers mapped onto :meth:`leave` / :meth:`rejoin`.
        Returns the plane (its counters feed scenario metrics).  The
        plane draws from its own seeded stream, so an un-faulted run's
        RNG sequences are untouched.
        """
        from repro.runtime.faults import FaultPlane

        plane = FaultPlane(schedule, rng=self.seeds.generator("faults"))
        self.network.attach_faults(plane)
        for event in schedule.lifecycle_events():
            for node_id in event.nodes:
                if event.kind == "crash":
                    self.sim.call_later(
                        max(0.0, event.at - self.sim.now), self._crash, node_id, plane
                    )
                else:
                    self.sim.call_later(
                        max(0.0, event.at - self.sim.now), self._restart, node_id, plane
                    )
        return plane

    def _crash(self, node_id: NodeId, plane) -> None:
        if self.churn_monitor is not None:
            # Silent failure: the node stops and its sockets die, but the
            # shared directory is NOT told — peers must *detect* the
            # crash (ping timeouts → suspicion → confirmation).  A crash
            # of an already-left node only flips the fault-plane flag.
            if self.network.is_connected(node_id):
                self.nodes[node_id].stop()
                self.network.disconnect(node_id)
                self.churn_monitor.on_crashed(node_id)
            plane.mark_crashed(node_id)
            return
        if self.membership.contains(node_id):
            self.leave(node_id)
        plane.mark_crashed(node_id)

    def _restart(self, node_id: NodeId, plane) -> None:
        if self.churn_monitor is not None:
            if self.controller.is_expelled(node_id):
                self.churn_monitor.on_rejoin_refused(node_id)
                return
            if self.network.is_connected(node_id):
                plane.mark_restarted(node_id)
                return  # never crashed; nothing to restart
            node = self.nodes[node_id]
            self.network.reconnect(node_id)
            if not self.membership.contains(node_id):
                # Confirmed dead while down: readmit under the bumped
                # incarnation (the young-node audit rule covers the
                # fresh history).
                self.membership.readmit(node_id, node.failure_detector.incarnation + 1)
            self._remap_node_state(node_id)
            node.reset_gossip_state()
            node.start()
            self.churn_monitor.on_restarted(node_id)
            plane.mark_restarted(node_id)
            return
        if not self.membership.contains(node_id):
            self.rejoin(node_id)
        plane.mark_restarted(node_id)

    def attach_invariants(self, interval: float = 1.0):
        """Arm an :class:`~repro.core.invariants.InvariantMonitor`.

        Sweeps every ``interval`` simulated seconds on a timer chain.
        The monitor is read-only and draws no RNG, so arming it cannot
        change a run's outcome — only observe it.  Returns the monitor;
        call its :meth:`~repro.core.invariants.InvariantMonitor.check`
        once more after the run for the final-state sweep.
        """
        from repro.core.invariants import monitor_for_cluster

        monitor = monitor_for_cluster(self)

        def sweep() -> None:
            monitor.check()
            self.sim.call_later(interval, sweep)

        self.sim.call_later(interval, sweep)
        return monitor

    def audit_results(self):
        """All sporadic-audit results collected across the cluster."""
        out = []
        for node in self.nodes.values():
            if node.auditor is not None:
                out.extend(node.auditor.results)
        return out

    def churn_summary(self) -> Dict[str, object]:
        """Cluster-level churn/detector metrics (empty without a
        failure detector): the monitor's transition counters and
        convergence delays plus the aggregated quarantine outcome."""
        if self.churn_monitor is None:
            return {}
        summary = self.churn_monitor.summary()
        quarantines = 0
        started = discarded = released = 0
        quarantined_events = 0
        for node in self.nodes.values():
            manager = node.manager
            if manager is None:
                continue
            started += manager.quarantines_started
            discarded += manager.quarantines_discarded
            released += manager.quarantines_released
            quarantines += manager.suspected_records()
            quarantined_events += manager.pending_quarantined_events()
        detectors = [
            node.failure_detector
            for node in self.nodes.values()
            if node.failure_detector is not None
        ]
        summary["suspected_now"] = len(self.membership.suspected_nodes())
        summary["quarantines_started"] = started
        summary["quarantines_discarded"] = discarded
        summary["quarantines_released"] = released
        summary["records_in_quarantine"] = quarantines
        summary["quarantined_events_pending"] = quarantined_events
        summary["probes_sent"] = sum(d.probes_sent for d in detectors)
        summary["indirect_probes"] = sum(d.indirect_probes for d in detectors)
        summary["local_suspicions"] = sum(d.suspicions_raised for d in detectors)
        summary["local_refutations"] = sum(d.refutations_sent for d in detectors)
        return summary
