"""The live plane of a deployment: N protocol nodes over real sockets.

The protocol wiring — roles, membership, manager assignment, expulsion,
the nodes, the crash/restart rules, the read-outs — is the same
:class:`~repro.deployment.Deployment` the simulated
:class:`~repro.experiments.cluster.SimCluster` runs, hosted here on the
asyncio transport and in real time, and read off it the same way
(``cluster.deployment``, ``cluster.invariants``).  This module keeps what
only a live run has: the sockets, the tamper-evident audit log, the
real-time tasks (fault driver, breaker probe, load generator) and the
:class:`RuntimeReport` of what the sockets counted.  The source and the
invariant sweeps ride the host's ``call_every``, as on the simulator.

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

The deployment is the same :class:`~repro.deployment.ClusterConfig` a
simulation takes; :func:`~repro.deployment.loopback_config` gives the
values this plane runs on loopback.  Usage (see
``examples/live_cluster.py``)::

    cluster = RuntimeCluster(RuntimeConfig(loopback_config(12), duration=6.0))
    report = asyncio.run(cluster.run())
    scores = cluster.deployment.scores()
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.auditlog import AuditLog
from repro.deployment import ClusterConfig, Deployment
from repro.faults import FaultPlane, FaultSchedule
from repro.gossip.chunks import StreamSource
from repro.gossip.protocol import GossipNode
from repro.loadgen.driver import LoadGenerator, LoadProfile
from repro.metrics.health import delivery_ratio
from repro.runtime.transport import AsyncTransport, NodeRegistry
from repro.util.rng import SeedSequenceFactory
from repro.wire import AuditRequest

NodeId = int

#: cadence of the breaker-probe task (well under the breaker's reset
#: timeout, so an open circuit is re-probed promptly).
_PROBE_INTERVAL = 0.12

#: the :class:`ClusterConfig` fields only the simulator's links model.
_SIM_ONLY_FIELDS = ("upload_rate", "degraded_fraction", "degraded_loss", "degraded_upload")


@dataclass(frozen=True)
class RuntimeConfig:
    """A live local deployment: the protocol's config, and what only a
    real-time run has."""

    #: the deployment (:func:`~repro.deployment.loopback_config`); its
    #: ``loss_rate`` is the transport's synthetic loss.
    cluster: ClusterConfig
    #: wall-clock seconds the nodes run.
    duration: float = 6.0
    #: scripted faults to run against the deployment (None = none).
    fault_schedule: Optional[FaultSchedule] = None
    #: JSONL mirror of the audit log (None = in-memory only).
    audit_log_path: Optional[str] = None
    #: seed of the audit log's HMAC key.
    audit_key_seed: str = "lifting-audit"
    #: open-loop load sweep driven at ``load_target`` during the run
    #: (None = no load generator).  ``duration`` must cover the
    #: profile's schedule for the sweep to complete.
    load_profile: Optional[LoadProfile] = None
    load_target: int = 0


@dataclass
class RuntimeReport:
    """What only a socket run counts; the protocol's read-outs are the
    deployment's (``cluster.deployment``) and the invariant sweeps'
    (``cluster.invariants``), as on the simulator."""

    chunks_emitted: int
    delivery_ratio: float
    datagrams_sent: int
    datagrams_dropped: int
    datagram_errors: int = 0
    sends_refused: int = 0
    #: breaker / ingress-queue / connection counters (see
    #: :meth:`AsyncTransport.resilience_snapshot`).
    resilience: Dict[str, object] = field(default_factory=dict)
    #: fault-plane injection counters (empty without a schedule).
    faults: Dict[str, int] = field(default_factory=dict)
    #: outcome of verifying the audit chain after the run.
    audit_ok: Optional[bool] = None
    audit_records: int = 0
    #: load-generator sweep report (empty without a ``load_profile``);
    #: see :meth:`repro.loadgen.driver.LoadGenerator.report`.
    load: Dict[str, object] = field(default_factory=dict)


class RuntimeCluster:
    """Drives a full live run and reports the outcome."""

    def __init__(self, config: RuntimeConfig) -> None:
        cluster = config.cluster
        for name in _SIM_ONLY_FIELDS:
            # A dataclass keeps each field's default as a class attribute.
            if getattr(cluster, name) != getattr(ClusterConfig, name):
                raise ValueError(f"{name} is simulator-only: the live plane models no link")
        self.config = config
        #: built by :meth:`run` (the transport needs the running loop).
        self.deployment: Optional[Deployment] = None
        self.source: Optional[StreamSource] = None
        self.nodes: Dict[NodeId, GossipNode] = {}
        self.audit_log: Optional[AuditLog] = None
        #: the invariant monitor :meth:`run` sweeps (``summary()`` after it).
        self.invariants = None
        #: armed by :meth:`run` when a load profile is configured.
        self.loadgen: Optional[LoadGenerator] = None

    async def run(self) -> RuntimeReport:
        """Execute the deployment for ``config.duration`` real seconds."""
        config, cluster = self.config, self.config.cluster
        period = cluster.gossip.gossip_period
        loop = asyncio.get_running_loop()
        seeds = SeedSequenceFactory(cluster.seed)
        registry = NodeRegistry()

        schedule = config.fault_schedule
        plane: Optional[FaultPlane] = None
        if schedule is not None:
            plane = FaultPlane(schedule, rng=seeds.generator("faults"))
        transport = AsyncTransport(
            loop,
            registry,
            loss_rate=cluster.loss_rate,
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
        log.append("run_start", n=cluster.gossip.n, seed=cluster.seed)

        timers = []  # the host's periodic handles: invariant sweeps, source
        tasks: List[asyncio.Task] = []
        try:
            deployment = Deployment(transport, seeds, cluster, audit_log=log)
            self.deployment = deployment
            self.nodes = deployment.nodes
            for node_id in deployment.node_ids:
                node = deployment.add_node(node_id)
                await transport.open_endpoints(node_id, node.on_message)

            # Safety-invariant sweeps, two gossip periods apart: read-only
            # over the managers/registry, so they observe the run without
            # perturbing it.
            invariants = self.invariants = deployment.invariant_monitor()
            timers.append(
                transport.call_every(2 * period, invariants.check, first_delay=2 * period)
            )

            # The source owns a real endpoint like any node; it just follows
            # a push schedule instead of the three-phase protocol.
            source = StreamSource(transport, deployment.membership, cluster.gossip)
            self.source = source
            await transport.open_endpoints(source.node_id, source.on_message)
            timers.append(source.start())

            if plane is not None:
                tasks.append(loop.create_task(self._fault_driver(transport, plane, log)))
                crash_targets = sorted(
                    {
                        nid
                        for ev in schedule.lifecycle_events()
                        if ev.kind == "crash"
                        for nid in ev.nodes
                    }
                )
                if crash_targets:
                    tasks.append(
                        loop.create_task(self._probe_crashed(transport, crash_targets))
                    )

            if config.load_profile is not None:
                self.loadgen = LoadGenerator(
                    transport, config.load_profile, config.load_target
                )
                await self.loadgen.start()
                tasks.append(loop.create_task(self.loadgen.run()))

            for node in self.nodes.values():
                node.start()

            await asyncio.sleep(config.duration)
            self._stop(timers, tasks)
            await asyncio.sleep(2 * period)  # drain in-flight timers
        except BaseException:
            log.close()  # a completed run closes it after the snapshot
            raise
        finally:
            # Also when cancelled (a timeout, Ctrl-C) or failed mid-setup:
            # no socket outlives the run.
            self._stop(timers, tasks)
            await transport.close()

        invariants.check()  # final-state sweep on the settled run
        return self._report(transport, plane, log)

    def _stop(self, timers, tasks: List[asyncio.Task]) -> None:
        """Stop the stream, the invariant sweeps, the background tasks and
        every node (idempotent)."""
        for timer in timers:
            timer.stop()
        for task in tasks:
            task.cancel()
        if self.loadgen is not None:
            self.loadgen.detach()
        for node in self.nodes.values():
            node.stop()

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

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(self, transport, plane, log) -> RuntimeReport:
        emitted = self.source.emitted
        delivery = delivery_ratio(self.nodes.values(), range(emitted))
        expelled, _wrongful = self.deployment.expulsions()
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
            datagrams_sent=transport.datagrams_sent,
            datagrams_dropped=transport.datagrams_dropped,
            datagram_errors=transport.datagram_errors,
            sends_refused=transport.sends_refused,
            resilience=resilience,
            faults=plane.counters() if plane is not None else {},
            audit_ok=chain.ok,
            audit_records=chain.length,
            load=load_report,
        )
