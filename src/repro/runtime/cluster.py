"""The live plane of a deployment: N protocol nodes over real sockets.

The protocol wiring — roles, membership, manager assignment, expulsion,
the nodes, the crash/restart rules, the read-outs — is the same
:class:`~repro.deployment.Deployment` the simulated
:class:`~repro.experiments.cluster.SimCluster` runs, hosted here on the
asyncio transport and in real time.  This module keeps what only a live
run has: the sockets, the tamper-evident audit log, the real-time tasks
(source, fault driver, breaker probe, invariant sweeps, load generator)
and the :class:`RuntimeReport`.

Robustness features (all off by default, switched on per config):

* a :class:`~repro.faults.FaultSchedule` is executed by a
  real-time driver task — crashes really close the node's sockets,
  restarts rebind them — while drops/partitions/slow links ride the
  transport's send hook;
* when crashes are scripted, a *probe* task keeps sending reliable
  audit requests to the crashed nodes from a healthy peer, which is
  what walks the per-peer circuit breaker through
  open → half-open → closed as the node dies and returns;
* expulsion verdicts reached by the reputation managers are chained
  into a tamper-evident :class:`~repro.core.auditlog.AuditLog` (one
  record per target) and, with ``expulsion_enabled``, enforced on the
  :class:`~repro.runtime.transport.NodeRegistry`.

Usage (see ``examples/live_cluster.py``)::

    config = RuntimeConfig(n=12, duration=6.0, freerider_fraction=0.25)
    report = asyncio.run(RuntimeCluster(config).run())
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.config import GossipParams, LiftingParams
from repro.core.auditlog import AuditLog
from repro.deployment import Deployment, adversary_policy
from repro.faults import FaultPlane, FaultSchedule
from repro.gossip.chunks import StreamSource
from repro.gossip.protocol import GossipNode
from repro.loadgen.driver import LoadGenerator, LoadProfile
from repro.membership.failure_detector import FailureDetectorParams
from repro.metrics.health import delivery_ratio
from repro.metrics.scores import DetectionReport
from repro.runtime.transport import AsyncTransport, NodeRegistry
from repro.util.rng import SeedSequenceFactory
from repro.wire import AuditRequest

NodeId = int

#: cadence of the breaker-probe task (well under the breaker's reset
#: timeout, so an open circuit is re-probed promptly).
_PROBE_INTERVAL = 0.12

#: the live deployment's protocol constants: ``T_g`` in seconds, ``f``
#: (also the source's fanout), ``M`` and the chunk payload in bytes; the
#: three LiFTinG timeouts are multiples of ``T_g`` (see ``RuntimeCluster``).
GOSSIP_PERIOD = 0.25
FANOUT = 4
MANAGERS = 5
CHUNK_SIZE = 1024


@dataclass(frozen=True)
class RuntimeConfig:
    """Parameters of a live local deployment."""

    n: int = 12
    duration: float = 6.0
    chunk_interval: float = 0.05
    loss_rate: float = 0.03
    freerider_fraction: float = 0.0
    #: what the freeriders run: any registered policy, as on
    #: ``ClusterConfig`` (:func:`repro.adversary.spec`); empty = all honest.
    adversary: tuple = ()
    seed: int = 0
    #: per-period probability of a sporadic entropy audit (0 = never).
    p_audit: float = 0.0
    #: enforce expulsion quorums on the registry (and audit-log them).
    expulsion_enabled: bool = False
    #: scripted faults to run against the deployment (None = none).
    fault_schedule: Optional[FaultSchedule] = None
    #: JSONL mirror of the audit log (None = in-memory only).
    audit_log_path: Optional[str] = None
    #: seed of the audit log's HMAC key.
    audit_key_seed: str = "lifting-audit"
    #: SWIM-style failure detection (None = off).  Timeouts are in
    #: gossip-period units, so the sim-calibrated defaults transfer.
    failure_detector: Optional[FailureDetectorParams] = None
    #: open-loop load sweep driven at ``load_target`` during the run
    #: (None = no load generator).  ``duration`` must cover the
    #: profile's schedule for the sweep to complete.
    load_profile: Optional[LoadProfile] = None
    load_target: int = 0

    def __post_init__(self) -> None:
        adversary_policy(self.adversary)  # unknown policy / bad parameter


@dataclass
class RuntimeReport:
    """What a live run produced."""

    chunks_emitted: int
    delivery_ratio: float
    scores: Dict[NodeId, float]
    detection: DetectionReport
    datagrams_sent: int
    datagrams_dropped: int
    freerider_ids: Set[NodeId] = field(default_factory=set)
    datagram_errors: int = 0
    sends_refused: int = 0
    #: breaker / ingress-queue / connection counters (see
    #: :meth:`AsyncTransport.resilience_snapshot`).
    resilience: Dict[str, object] = field(default_factory=dict)
    #: fault-plane injection counters (empty without a schedule).
    faults: Dict[str, int] = field(default_factory=dict)
    expelled: List[NodeId] = field(default_factory=list)
    #: expelled nodes that were not freeriders (wrongful blame).
    wrongful_expulsions: List[NodeId] = field(default_factory=list)
    #: outcome of verifying the audit chain after the run.
    audit_ok: Optional[bool] = None
    audit_records: int = 0
    #: churn/detector transition counters and convergence delays
    #: (empty without a failure detector).
    membership: Dict[str, object] = field(default_factory=dict)
    #: safety-invariant sweep outcome (see
    #: :class:`repro.core.invariants.InvariantMonitor.summary`).
    invariants: Dict[str, object] = field(default_factory=dict)
    #: load-generator sweep report (empty without a ``load_profile``);
    #: see :meth:`repro.loadgen.driver.LoadGenerator.report`.
    load: Dict[str, object] = field(default_factory=dict)


class RuntimeCluster:
    """Drives a full live run and reports the outcome."""

    def __init__(self, config: RuntimeConfig) -> None:
        self.config = config
        self.gossip = GossipParams(
            n=config.n,
            fanout=min(FANOUT, config.n - 1),
            gossip_period=GOSSIP_PERIOD,
            stream_rate_kbps=CHUNK_SIZE * 8 / 1000 / config.chunk_interval,
            chunk_size=CHUNK_SIZE,
            source_fanout=min(FANOUT, config.n - 1),
            request_size=4,
        )
        self.lifting = LiftingParams(
            p_dcc=1.0,
            managers=min(MANAGERS, config.n - 1),
            history_periods=50,
            assumed_loss_rate=config.loss_rate,
            ack_timeout=2.5 * self.gossip.gossip_period,
            serve_timeout=1.5 * self.gossip.gossip_period,
            confirm_timeout=1.5 * self.gossip.gossip_period,
        )
        #: built by :meth:`run` (the transport needs the running loop).
        self.deployment: Optional[Deployment] = None
        self.source: Optional[StreamSource] = None
        self.nodes: Dict[NodeId, GossipNode] = {}
        self.freerider_ids: Set[NodeId] = set()
        self.audit_log: Optional[AuditLog] = None
        #: armed by :meth:`run`; exposes live invariant state to tests.
        self.invariants = None
        #: armed by :meth:`run` when a load profile is configured.
        self.loadgen: Optional[LoadGenerator] = None

    async def run(self) -> RuntimeReport:
        """Execute the deployment for ``config.duration`` real seconds."""
        config = self.config
        loop = asyncio.get_running_loop()
        seeds = SeedSequenceFactory(config.seed)
        registry = NodeRegistry()

        schedule = config.fault_schedule
        plane: Optional[FaultPlane] = None
        if schedule is not None:
            plane = FaultPlane(schedule, rng=seeds.generator("faults"))
        transport = AsyncTransport(
            loop,
            registry,
            loss_rate=config.loss_rate,
            rng=seeds.generator("loss"),
            # consulted per send: only a window fault gives it something to say
            fault_plane=plane if plane is not None and schedule.window_events() else None,
        )
        log = AuditLog(
            key_seed=config.audit_key_seed,
            path=config.audit_log_path,
            clock=transport.clock,
        )
        self.audit_log = log
        log.append("run_start", n=config.n, seed=config.seed)

        deployment = Deployment(
            transport,
            seeds,
            self.gossip,
            self.lifting,
            freerider_fraction=config.freerider_fraction,
            adversary=config.adversary,
            expulsion_enabled=config.expulsion_enabled,
            p_audit=config.p_audit,
            failure_detector=config.failure_detector,
            audit_log=log,
        )
        self.deployment = deployment
        self.nodes = deployment.nodes
        self.freerider_ids = deployment.freerider_ids
        for node_id in deployment.node_ids:
            node = deployment.add_node(node_id)
            await transport.open_endpoints(node_id, node.on_message)

        # Safety-invariant sweeps ride their own task: read-only over
        # the managers/registry, so they observe the run without
        # perturbing it.
        invariants = deployment.invariant_monitor()
        self.invariants = invariants
        invariant_task = loop.create_task(self._invariant_sweeps(invariants))

        # The source owns a real endpoint like any node; it just follows
        # a push schedule instead of the three-phase protocol.
        source = StreamSource(transport, deployment.membership, self.gossip)
        self.source = source
        await transport.open_endpoints(source.node_id, source.on_message)
        source_timer = source.start()

        fault_task = probe_task = None
        if plane is not None:
            fault_task = loop.create_task(
                self._fault_driver(transport, plane, log)
            )
            crash_targets = sorted(
                {
                    nid
                    for ev in config.fault_schedule.lifecycle_events()
                    if ev.kind == "crash"
                    for nid in ev.nodes
                }
            )
            if crash_targets:
                probe_task = loop.create_task(
                    self._probe_crashed(transport, crash_targets)
                )

        load_task = None
        if config.load_profile is not None:
            self.loadgen = LoadGenerator(
                transport, config.load_profile, config.load_target
            )
            await self.loadgen.start()
            load_task = loop.create_task(self.loadgen.run())

        for node in self.nodes.values():
            node.start()

        await asyncio.sleep(config.duration)

        source_timer.stop()
        for task in (fault_task, probe_task, invariant_task, load_task):
            if task is not None:
                task.cancel()
        if self.loadgen is not None:
            self.loadgen.detach()
        for node in self.nodes.values():
            node.stop()
        await asyncio.sleep(2 * self.gossip.gossip_period)  # drain in-flight timers
        await transport.close()

        invariants.check()  # final-state sweep on the settled run
        return self._report(transport, plane, log, invariants)

    # ------------------------------------------------------------------
    # background tasks
    # ------------------------------------------------------------------
    async def _fault_driver(
        self, transport: AsyncTransport, plane: FaultPlane, log: AuditLog
    ) -> None:
        """Apply the schedule's crash/restart instants in real time."""
        deployment = self.deployment
        for event in self.config.fault_schedule.lifecycle_events():
            delay = event.at - transport.clock()
            if delay > 0:
                await asyncio.sleep(delay)
            for node_id in event.nodes:
                if node_id not in self.nodes:
                    continue
                if event.kind == "crash":
                    deployment.crash(node_id)
                    plane.mark_crashed(node_id)
                    log.append("fault", event="crash", node=int(node_id))
                elif deployment.may_restart(node_id):
                    await transport.restart_node(node_id)
                    if not transport.is_connected(node_id):
                        continue  # expelled while its sockets were rebinding
                    plane.mark_restarted(node_id)
                    deployment.restarted(node_id)
                    log.append("fault", event="restart", node=int(node_id))
                elif deployment.controller.is_expelled(node_id):
                    # Expulsion outlives the crash: the quorum's verdict
                    # bars the node from rebinding.
                    log.append("fault", event="restart_refused", node=int(node_id))

    async def _probe_crashed(
        self, transport: AsyncTransport, targets: List[NodeId]
    ) -> None:
        """Keep poking scripted-crash targets over the reliable path.

        The prober is a node that never crashes; its audit requests are
        harmless protocol traffic, but their fate — refused connects
        while the target is down, a successful write after the restart —
        is exactly the failure/success series that drives the target's
        circuit breaker through open, half-open and back to closed.
        """
        prober = next(
            (nid for nid in sorted(self.nodes) if nid not in targets), None
        )
        if prober is None:  # degenerate schedule: every node crashes
            return
        probe = AuditRequest(periods=1)
        while True:
            for target in targets:
                transport.send(prober, target, probe, reliable=True)
            await asyncio.sleep(_PROBE_INTERVAL)

    async def _invariant_sweeps(self, monitor) -> None:
        """Periodic safety sweeps, a couple per gossip period window."""
        interval = 2 * self.gossip.gossip_period
        while True:
            await asyncio.sleep(interval)
            monitor.check()

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, transport, plane, log, invariants) -> RuntimeReport:
        deployment = self.deployment
        emitted = self.source.emitted
        delivery = delivery_ratio(self.nodes.values(), range(emitted))
        expelled, wrongful = deployment.expulsions()
        log.snapshot(
            {
                "chunks_emitted": emitted,
                "delivery_ratio": round(delivery, 6),
                "expelled": [int(n) for n in expelled],
            }
        )
        chain = log.verify_all()
        log.close()
        resilience = transport.resilience_snapshot()
        load_report: Dict[str, object] = {}
        if self.loadgen is not None:
            load_report = self.loadgen.report(resilience)
        return RuntimeReport(
            chunks_emitted=emitted,
            delivery_ratio=delivery,
            scores=deployment.scores(),
            detection=deployment.detection(),
            datagrams_sent=transport.datagrams_sent,
            datagrams_dropped=transport.datagrams_dropped,
            freerider_ids=set(self.freerider_ids),
            datagram_errors=transport.datagram_errors,
            sends_refused=transport.sends_refused,
            resilience=resilience,
            faults=plane.counters() if plane is not None else {},
            expelled=expelled,
            wrongful_expulsions=wrongful,
            audit_ok=chain.ok,
            audit_records=chain.length,
            membership=deployment.churn_summary(),
            invariants=invariants.summary(),
            load=load_report,
        )
