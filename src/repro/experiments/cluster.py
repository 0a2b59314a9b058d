"""The simulated plane of a deployment.

:class:`SimCluster` is the testbed-in-a-box used by the PlanetLab-style
experiments (Figures 1, 14, Tables 3, 5).  The protocol wiring — roles,
membership, manager assignment, expulsion, the nodes themselves, the
crash/restart rules and the score read-outs — is a
:class:`~repro.deployment.Deployment`, shared with the live runtime;
this module keeps what only a simulation has: the discrete-event
simulator, a lossy network with per-node heterogeneity, the stream
source, the oracle ``leave`` / ``rejoin`` used when no failure detector
runs, and the health / overhead metrics read off the simulated trace.

Roles are assigned pseudo-randomly from the seed and armed from the one
``adversary`` value, so a cluster is fully reproducible from its config.
"""

from __future__ import annotations

import gc
import math
from typing import Dict, Optional, Set

from repro.deployment import ClusterConfig, Deployment
from repro.faults import FaultPlane
from repro.gossip.chunks import StreamSource
from repro.gossip.protocol import GossipNode
from repro.metrics.health import HealthReport, health_curve
from repro.metrics.overhead import OverheadReport, bandwidth_overhead
from repro.sim.engine import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.loss import PerNodeLoss
from repro.sim.network import Network, SimTransport
from repro.util.rng import SeedSequenceFactory

NodeId = int

#: one-way latency is drawn uniformly from this range (seconds).
LATENCY_RANGE = (0.01, 0.08)


class SimCluster:
    """A fully wired simulated deployment.

    Construction starts with one ``gc.collect()``: a deployment is the
    only cyclic structure this package builds and ``Simulator.run``
    keeps the collector off, so a dropped cluster dies where its
    successor is built.
    """

    def __init__(self, config: ClusterConfig) -> None:
        gc.collect()
        self.config = config
        seeds = SeedSequenceFactory(config.seed)
        self.seeds = seeds

        self.sim = Simulator()
        self.loss = PerNodeLoss(seeds.generator("loss"), base=config.loss_rate)
        self.latency = UniformLatency(seeds.generator("latency"), *LATENCY_RANGE)
        self.network = Network(self.sim, latency=self.latency, loss=self.loss)
        self.trace = self.network.trace

        # --- the protocol wiring (shared with the live plane) -----------
        host = SimTransport(self.sim, self.network)
        deployment = Deployment(host, seeds, config)
        self.deployment = deployment
        self.node_ids = deployment.node_ids
        self.freerider_ids: Set[NodeId] = deployment.freerider_ids
        self.honest_ids: Set[NodeId] = deployment.honest_ids
        self.degraded_ids: Set[NodeId] = deployment.degraded_ids
        self.membership = deployment.membership
        self.assignment = deployment.assignment
        self.controller = deployment.controller
        self.churn_monitor = deployment.churn_monitor
        self.adversary_policy = deployment.adversary_policy
        self.nodes: Dict[NodeId, GossipNode] = deployment.nodes
        self.scoreboard = deployment.scoreboard
        self.scores = deployment.scores
        self.detection = deployment.detection
        self.expulsions = deployment.expulsions
        self.churn_summary = deployment.churn_summary

        # --- source -----------------------------------------------------
        self.source = StreamSource(host, self.membership, config.gossip)
        self.network.register(self.source)

        # --- nodes -------------------------------------------------------
        for node_id in self.node_ids:
            node = deployment.add_node(node_id)
            upload = config.upload_rate if config.upload_rate is not None else math.inf
            if node_id in self.degraded_ids:
                self.loss.set_node_loss(node_id, config.degraded_loss)
                if config.degraded_upload is not None:
                    upload = config.degraded_upload
            self.network.register(node, upload_rate=upload)
        self._started = False

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the source and every node (idempotent)."""
        if self._started:
            return
        self._started = True
        self.source.start(first_delay=0.05)
        for node in self.nodes.values():
            node.start()

    def run(self, until: float) -> None:
        """Advance simulated time to ``until`` (starting if needed)."""
        self.start()
        self.sim.run(until=until)

    # ------------------------------------------------------------------
    # measurements
    # ------------------------------------------------------------------
    def health(self, *, lags, coverage: float = 0.99, window=None) -> HealthReport:
        """Figure 1's health curve over the nodes."""
        return health_curve(
            self.nodes.values(), self.source, lags=lags, coverage=coverage, window=window
        )

    def overhead(self, duration: Optional[float] = None) -> OverheadReport:
        """Table 5's bandwidth-overhead report for the run so far."""
        elapsed = self.sim.now if duration is None else duration
        return bandwidth_overhead(self.trace, elapsed, self.config.gossip.n)

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
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
        node = self.nodes[node_id]
        detector = node.failure_detector
        # start() below bumps the incarnation; register the bumped
        # value so stale suspicions cannot instantly re-evict.
        incarnation = 0 if detector is None else detector.incarnation + 1
        if not self.deployment.may_restart(node_id) or not self.membership.readmit(
            node_id, incarnation
        ):
            return False
        self.network.reconnect(node_id)
        if detector is not None:
            self.deployment.fresh_incarnation(node_id)
        node.start()
        if self.churn_monitor is not None:
            self.churn_monitor.on_rejoined(node_id)
        return True

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def attach_faults(self, schedule) -> "object":
        """Arm a :class:`~repro.faults.FaultSchedule`.

        Window faults (drops, partitions, slow links) are enforced by a
        :class:`~repro.faults.FaultPlane` hooked into the
        network's send path (only if the schedule has one); crash/restart
        instants are scheduled as simulator timers mapped onto the
        deployment's silent-failure lifecycle — or, with no failure
        detector to notice a silent crash, onto the oracle
        :meth:`leave` / :meth:`rejoin`.
        Returns the plane (its counters feed scenario metrics).  The
        plane draws from its own seeded stream, so an un-faulted run's
        RNG sequences are untouched.
        """
        plane = FaultPlane(schedule, rng=self.seeds.generator("faults"))
        if schedule.window_events():
            self.network.fault_plane = plane
        for event in schedule.lifecycle_events():
            apply = self._crash if event.kind == "crash" else self._restart
            for node_id in event.nodes:
                self.sim.call_later(max(0.0, event.at - self.sim.now), apply, node_id, plane)
        return plane

    def _crash(self, node_id: NodeId, plane) -> None:
        if self.churn_monitor is not None:
            # Silent: peers must *detect* it.  A crash of an already-left
            # node only flips the fault-plane flag.
            self.deployment.crash(node_id)
        elif self.membership.contains(node_id):
            self.leave(node_id)  # no detector: the directory is the oracle
        plane.mark_crashed(node_id)

    def _restart(self, node_id: NodeId, plane) -> None:
        if self.churn_monitor is None:
            if not self.membership.contains(node_id):
                self.rejoin(node_id)
        elif self.deployment.may_restart(node_id):
            self.network.reconnect(node_id)
            self.deployment.restarted(node_id)
        elif self.controller.is_expelled(node_id):
            return  # refused: the plane keeps the node flagged down
        plane.mark_restarted(node_id)

    def attach_invariants(self, interval: float = 1.0):
        """Arm an :class:`~repro.core.invariants.InvariantMonitor`.

        Sweeps every ``interval`` simulated seconds on the simulator's
        ``call_every``, as the live plane does on its loop's.  The
        monitor is read-only and draws no RNG, so arming it cannot
        change a run's outcome — only observe it.  Returns the monitor;
        call its :meth:`~repro.core.invariants.InvariantMonitor.check`
        once more after the run for the final-state sweep.
        """
        monitor = self.deployment.invariant_monitor()
        self.sim.call_every(interval, monitor.check)
        return monitor

    def audit_results(self):
        """All sporadic-audit results collected across the cluster."""
        out = []
        for node in self.nodes.values():
            if node.auditor is not None:
                out.extend(node.auditor.results)
        return out
