"""Socket transport for the asyncio runtime.

Each node owns one UDP socket (unreliable path) and one TCP server
(reliable path, used by audits).  Messages are serialised with
the strict schema codec of :mod:`repro.wire_codec` — per-field typed
packing derived from the frozen wire dataclasses, framed by a 4-byte
length prefix on TCP and sent as one frame per datagram on UDP.  No
byte a peer sends is ever trusted: unknown tags, truncated or trailing
bytes, out-of-range counts and oversized frames are all rejected at the
socket boundary, counted per claimed source in
:meth:`AsyncTransport.resilience_snapshot`, and repeated garbage from
one peer trips that peer's circuit breaker (we stop talking to a
babbling endpoint).  A TCP length prefix above the codec's frame cap
kills the connection outright — framing can no longer be trusted after
it.

Resilience layer (see :mod:`repro.runtime.resilience`):

* **Egress** — reliable sends go through one persistent
  :class:`_PeerChannel` per destination: frames queue in a bounded
  deque and a writer task coalesces them into single TCP writes over a
  connection that is opened once and kept.  Connection establishment
  retries with exponential backoff + jitter; a per-peer circuit breaker
  (closed/open/half-open) fast-fails sends to a dead peer instead of
  burning sockets and backoff sleeps on every attempt.
* **Ingress** — decoded messages from both sockets land in one
  :class:`~repro.runtime.resilience.BoundedIngressQueue`, drained by a
  ``loop.call_soon`` callback one batch per loop turn (so a burst cannot
  starve timers), one message at a time through each node's
  ``dispatch_table`` (the same per-message entry the simulated network
  uses).  A raising handler costs only its own message.

The UDP sockets are the transport's own: plain non-blocking
``socket.socket`` objects registered with ``loop.add_reader`` (which
needs a selector event loop — asyncio's default on every platform CI
runs; the Windows proactor loop has no ``add_reader``).  One readiness
event reads a *run*: every datagram the kernel holds, up to
``ingress_batch``, each liveness-checked and strictly decoded on its
own, the run sharing one arrival stamp and one ``push_run`` — an
event-loop turn per run, not per frame.  Whatever the cap leaves behind
the level-triggered selector reports again on the next turn, after the
other sockets and the timers had theirs.  Egress is ``sendto`` on the
same socket: a full send buffer drops the datagram (UDP is the lossy
path; counted in ``datagrams_dropped``), any other ``OSError`` is a
counted ``datagram_errors``, and nothing is buffered out of sight.

Scripted faults (:class:`~repro.faults.FaultPlane`) hook the
send path — drops and slow links — while node crash/restart is a
transport operation (:meth:`AsyncTransport.crash_node` really closes
the sockets, so peers observe ECONNREFUSED/ICMP like they would in
production, which is what exercises the breaker and the
``datagram_errors`` counter).

The :class:`NodeRegistry` is the bootstrap directory mapping node ids to
socket addresses; it also implements expulsion (an expelled node's
address is removed, so peers can no longer reach it and its own sends
are refused).
"""

from __future__ import annotations

import asyncio
import socket
import struct
from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

import numpy as np

from repro import wire_codec
from repro.runtime.resilience import (
    BoundedIngressQueue,
    BreakerCounters,
    CircuitBreaker,
    RESILIENCE_SNAPSHOT_SCHEMA,
    ResilienceConfig,
)
from repro.util.validation import require

NodeId = int
Address = Tuple[str, int]

_LENGTH = struct.Struct("!I")

#: max frames queued per peer channel awaiting transmission, and max
#: frames coalesced into one TCP write.
EGRESS_QUEUE_LIMIT = 512
COALESCE_FRAMES = 64

#: read size per datagram.  No IPv4 UDP payload is larger (65 507
#: bytes), so a read never truncates a frame into one that might decode.
_MAX_DATAGRAM = wire_codec.MAX_FRAME_BYTES


class NodeRegistry:
    """Directory of node addresses with expulsion support."""

    def __init__(self) -> None:
        #: every registered node's UDP endpoint, expelled ones included:
        #: a per-frame path that has tested ``connected`` subscripts it.
        self.udp: Dict[NodeId, Address] = {}
        self._tcp: Dict[NodeId, Address] = {}
        self._expelled: set = set()
        #: registered and not expelled — what :meth:`is_connected`
        #: answers; the transport's per-frame paths test membership on
        #: it directly instead of paying a call per question.
        self.connected: Set[NodeId] = set()

    def register(self, node_id: NodeId, udp: Address, tcp: Address) -> None:
        """Publish a node's endpoints."""
        self.udp[node_id] = udp
        self._tcp[node_id] = tcp
        if node_id not in self._expelled:
            self.connected.add(node_id)

    def expel(self, node_id: NodeId) -> None:
        """Remove a node from the fabric."""
        self._expelled.add(node_id)
        self.connected.discard(node_id)

    def is_connected(self, node_id: NodeId) -> bool:
        """Whether a node is registered and not expelled."""
        return node_id in self.connected

    def is_known(self, node_id: NodeId) -> bool:
        """Whether a node ever registered (connected, expelled or down)."""
        return node_id in self.udp

    def udp_address(self, node_id: NodeId) -> Optional[Address]:
        """UDP endpoint of ``node_id`` (None when unreachable)."""
        if node_id in self._expelled:
            return None
        return self.udp.get(node_id)

    def tcp_address(self, node_id: NodeId) -> Optional[Address]:
        """TCP endpoint of ``node_id`` (None when unreachable)."""
        if node_id in self._expelled:
            return None
        return self._tcp.get(node_id)


class _PeerChannel:
    """Persistent framed TCP egress to one destination node.

    Frames queue in a bounded deque; a single writer task opens the
    connection (retrying with the transport's backoff policy), coalesces
    queued frames into one write, and reports outcomes to the per-peer
    circuit breaker.  The channel is shared by every local node sending
    to ``dst`` — the frame payload carries the source id.
    """

    def __init__(self, transport: "AsyncTransport", dst: NodeId) -> None:
        self.transport = transport
        self.dst = dst
        self.queue: Deque[bytes] = deque()
        self.breaker = CircuitBreaker(
            transport.clock, reset_timeout=transport.resilience.breaker_reset_timeout
        )
        self.event = asyncio.Event()
        self.writer: Optional[asyncio.StreamWriter] = None
        self.task: Optional[asyncio.Task] = None

    def submit(self, frame: bytes) -> bool:
        """Queue one length-prefixed frame; False when refused."""
        if not self.breaker.allow():
            return False
        if len(self.queue) >= EGRESS_QUEUE_LIMIT:
            return False
        self.queue.append(frame)
        self.event.set()
        if self.task is None or self.task.done():
            self.task = self.transport.loop.create_task(self._run())
        return True

    async def _run(self) -> None:
        transport = self.transport
        while not transport._closing:
            if not self.queue:
                self.event.clear()
                await self.event.wait()
                continue
            if not await self._ensure_connection():
                self.breaker.record_failure()
                transport.frames_abandoned += len(self.queue)
                self.queue.clear()
                continue
            chunks = []
            while self.queue and len(chunks) < COALESCE_FRAMES:
                chunks.append(self.queue.popleft())
            try:
                self.writer.write(b"".join(chunks))
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.drop_connection()
                self.breaker.record_failure()
                transport.frames_abandoned += len(chunks)
                continue
            self.breaker.record_success()

    async def _ensure_connection(self) -> bool:
        if self.writer is not None and not self.writer.is_closing():
            return True
        transport = self.transport
        address = transport.registry.tcp_address(self.dst)
        if address is None:
            return False
        policy = transport.resilience.retry
        for attempt in range(policy.max_attempts):
            if self.dst in transport._crashed:
                # The peer's server is down; fail fast so the breaker
                # opens instead of sleeping through doomed connects.
                transport.connect_failures += 1
                return False
            try:
                _reader, writer = await asyncio.open_connection(*address)
            except (ConnectionError, OSError):
                transport.connect_failures += 1
                if attempt + 1 < policy.max_attempts:
                    await asyncio.sleep(policy.delay(attempt, transport.rng))
                continue
            self.writer = writer
            return True
        return False

    def drop_connection(self) -> None:
        """Discard the cached stream (next write reconnects)."""
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    def close(self) -> None:
        self.event.set()
        if self.task is not None:
            self.task.cancel()
        self.drop_connection()


class AsyncTransport:
    """The transport facade over asyncio sockets.

    ``clock``, ``call_later``, ``call_every``, ``send`` — what a
    :class:`~repro.gossip.protocol.GossipNode` needs of its host, the
    simulator's :class:`~repro.gossip.protocol.SimTransport` being the
    other one —
    plus ``is_connected`` / ``disconnect`` / ``expel``, so a
    :class:`~repro.deployment.Deployment` does too.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        registry: NodeRegistry,
        *,
        loss_rate: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        resilience: Optional[ResilienceConfig] = None,
        fault_plane=None,
    ) -> None:
        require(0.0 <= loss_rate < 1.0, "loss_rate must be in [0, 1)")
        self.loop = loop
        self.registry = registry
        self.loss_rate = loss_rate
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.epoch = loop.time()
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self.fault_plane = fault_plane
        self._endpoints: Dict[NodeId, socket.socket] = {}
        #: node -> (receiver callable, dispatch table or None)
        self._receivers: Dict[NodeId, Tuple[Callable, Optional[dict]]] = {}
        self._servers: Dict[NodeId, asyncio.AbstractServer] = {}
        self._server_conns: Dict[NodeId, Set[asyncio.StreamWriter]] = {}
        self._serve_tasks: Set[asyncio.Task] = set()
        self._channels: Dict[NodeId, _PeerChannel] = {}
        self._crashed: Set[NodeId] = set()
        self._closing = False
        #: optional stage-timestamp observer (see
        #: :class:`repro.loadgen.probe.StageProbe`).  Every hot-path hook
        #: is guarded by one ``is not None`` check, so the disabled cost
        #: is a single attribute load per ingest / per drained batch.
        self.probe = None
        # ingress: one bounded queue, drained by callbacks on the loop
        self._ingress = BoundedIngressQueue(
            capacity=self.resilience.ingress_capacity,
            policy=self.resilience.ingress_policy,
            on_evict=self._on_ingress_evict,
        )
        #: a ``_drain`` is on the loop's ready queue (always, while entries wait)
        self._drain_filed = False
        # counters
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagram_errors = 0
        self.sends_refused = 0
        self.frames_abandoned = 0
        self.connect_failures = 0
        #: rejected ingress frames, total and per claimed source.  The
        #: attribution comes from the (unauthenticated) frame header,
        #: so it quarantines a babbling peer without convicting it.
        self.decode_errors = 0
        self.decode_errors_unattributed = 0
        self.decode_errors_by_peer: Dict[NodeId, int] = {}
        #: handler calls that raised (each contained to its message).
        self.dispatch_errors = 0

    # ------------------------------------------------------------------
    # the facade used by GossipNode
    # ------------------------------------------------------------------
    def clock(self) -> float:
        """Seconds since the cluster epoch."""
        return self.loop.time() - self.epoch

    def call_later(self, delay: float, callback: Callable[..., None], *args):
        """Schedule on the event loop; returns the asyncio handle."""
        return self.loop.call_later(delay, callback, *args)

    def call_every(self, interval: float, callback, *, first_delay: float, jitter=None):
        """Periodic scheduling with the same semantics as the simulator."""
        return _PeriodicHandle(self.loop, interval, callback, first_delay, jitter)

    def send(self, src: NodeId, dst: NodeId, message: object, reliable: bool) -> bool:
        """Ship one message.

        Return contract: ``True`` means the transport *accepted* the
        message — it was handed to a socket, queued on a peer channel,
        or deliberately discarded by synthetic loss / fault injection
        (the network ate it; the sender did its part).  ``False`` means
        the send was **refused** before any transmission was attempted —
        unknown or expelled endpoint (including the sender itself),
        crashed source or destination, missing socket, an open circuit
        breaker, or a full egress queue — and ``sends_refused`` is
        incremented exactly once per refusal.
        """
        connected = self.registry.connected
        if src not in connected or dst not in connected:
            self.sends_refused += 1
            return False
        if src in self._crashed:
            # A crashed source has no sockets.  Sends *to* a crashed
            # destination deliberately proceed: datagrams vanish like
            # they would on a real network, and reliable frames hit the
            # peer channel whose failing connects open the breaker.
            self.sends_refused += 1
            return False
        extra = 0.0
        if self.fault_plane is not None:
            fate = self.fault_plane.on_send(self.clock(), src, dst, message)
            if fate < 0.0:
                return True  # injected drop: counted by the plane
            extra = fate
        payload = wire_codec.encode_frame(src, message)
        if not reliable:
            try:
                sock = self._endpoints[src]
            except KeyError:
                self.sends_refused += 1
                return False
            address = self.registry.udp[dst]  # dst is connected, so registered
            self.datagrams_sent += 1
            if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
                self.datagrams_dropped += 1
                return True
            if extra > 0.0:
                self.loop.call_later(extra, self._sendto_late, src, payload, address)
                return True
            try:
                sock.sendto(payload, address)
            except OSError as exc:
                self._on_datagram_error(exc)
            return True
        channel = self._channels.get(dst)
        if channel is None:
            channel = _PeerChannel(self, dst)
            self._channels[dst] = channel
        frame = _LENGTH.pack(len(payload)) + payload
        if extra > 0.0:
            self.loop.call_later(extra, self._submit_late, src, channel, frame)
            return True
        if not channel.submit(frame):
            self.sends_refused += 1
            return False
        return True

    def _sendto_late(self, src: NodeId, payload: bytes, address: Address) -> None:
        """Transmit a fault-delayed datagram (unless the node crashed)."""
        sock = self._endpoints.get(src)
        if sock is not None:
            try:
                sock.sendto(payload, address)
            except OSError as exc:
                self._on_datagram_error(exc)

    def _submit_late(self, src: NodeId, channel: _PeerChannel, frame: bytes) -> None:
        """Queue a fault-delayed reliable frame (unless the node crashed
        or the transport is closing).  ``send`` reported it accepted
        when the delay began, so a refusal now — the breaker opened or
        the queue filled meanwhile — abandons a frame."""
        if self._closing or src in self._crashed:
            return
        if not channel.submit(frame):
            self.frames_abandoned += 1

    # ------------------------------------------------------------------
    # endpoint lifecycle
    # ------------------------------------------------------------------
    async def open_endpoints(
        self, node_id: NodeId, receiver: Callable[[NodeId, object], None]
    ) -> None:
        """Bind the node's UDP socket and TCP server on loopback.

        When ``receiver`` is a bound method of an endpoint that
        publishes a ``dispatch_table`` (``GossipNode.on_message`` does),
        incoming messages jump straight to the type-keyed handler, one
        call per message — the same entry the simulated network uses.
        """
        owner = getattr(receiver, "__self__", None)
        self._receivers[node_id] = (receiver, getattr(owner, "dispatch_table", None))
        await self._bind(node_id, ("127.0.0.1", 0), ("127.0.0.1", 0))

    async def _bind(self, node_id: NodeId, udp_addr: Address, tcp_addr: Address) -> None:
        """Open both sockets (``port 0`` = ephemeral) and register them.

        Both or neither: the UDP socket joins the loop only once the TCP
        server is up, and is closed again when that bind fails, so a
        caller that retries on other ports leaves nothing reading on
        these.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(udp_addr)
            server = await asyncio.start_server(
                lambda r, w: self._serve_stream(node_id, r, w), tcp_addr[0], tcp_addr[1]
            )
        except BaseException:
            sock.close()
            raise
        self.loop.add_reader(sock, self._on_readable, node_id, sock)
        self._endpoints[node_id] = sock
        self._servers[node_id] = server
        self.registry.register(
            node_id, sock.getsockname(), server.sockets[0].getsockname()
        )

    def _release(self, sock: socket.socket) -> None:
        """Take a UDP socket off the loop and free its port, synchronously."""
        self.loop.remove_reader(sock)
        sock.close()

    def crash_node(self, node_id: NodeId) -> None:
        """Really tear the node's sockets down (fault injection).

        Datagrams sent to it vanish (where the kernel reports the ICMP
        port-unreachable on the sender's socket, it is a counted
        ``datagram_errors``); TCP connects fail with ECONNREFUSED, which
        is what opens the circuit breaker.  The registry entry is kept
        and both ports are free when this returns, so
        :meth:`restart_node` can rebind on them.
        """
        self._crashed.add(node_id)
        sock = self._endpoints.pop(node_id, None)
        if sock is not None:
            self._release(sock)
        server = self._servers.pop(node_id, None)
        if server is not None:
            server.close()
        for writer in self._server_conns.pop(node_id, set()):
            writer.close()
        channel = self._channels.get(node_id)
        if channel is not None:
            channel.drop_connection()

    #: the fabric names a :class:`~repro.deployment.Deployment` uses.
    disconnect = crash_node

    def expel(self, node_id: NodeId) -> None:
        """Take the node off the fabric for good (see the registry)."""
        self.registry.expel(node_id)

    def is_connected(self, node_id: NodeId) -> bool:
        """Whether the node is registered, not expelled and not crashed."""
        return node_id in self.registry.connected and node_id not in self._crashed

    async def restart_node(self, node_id: NodeId) -> None:
        """Rebind a crashed node's sockets (same ports when possible)."""
        udp_addr = self.registry.udp_address(node_id)
        tcp_addr = self.registry.tcp_address(node_id)
        if udp_addr is None or tcp_addr is None:
            return  # expelled while down: stays down
        try:
            await self._bind(node_id, udp_addr, tcp_addr)
        except OSError:
            # Ports were taken while the node was down; take fresh ones
            # and re-register (peers look addresses up per send).
            await self._bind(node_id, ("127.0.0.1", 0), ("127.0.0.1", 0))
        self._crashed.discard(node_id)

    # ------------------------------------------------------------------
    # ingress: sockets -> bounded queue -> drain -> nodes
    # ------------------------------------------------------------------
    def _on_datagram_error(self, exc: OSError) -> None:
        """Account a failed call on a UDP socket (never raised to callers).

        A send that would block found the socket's send buffer full:
        UDP is the lossy path, the datagram is dropped and counted as
        such.  Anything else — ICMP errors surfacing on the next socket
        call are the only cheap liveness signal UDP has — is an error.
        """
        if isinstance(exc, BlockingIOError):
            self.datagrams_dropped += 1
        else:
            self.datagram_errors += 1

    def _on_readable(self, node_id: NodeId, sock: socket.socket) -> None:
        """Readiness callback of ``node_id``'s UDP socket: ingest one run.

        Reads until the socket would block, at most ``ingress_batch``
        datagrams per event so a flooded socket cannot starve the other
        sockets and the timers.  Every datagram gets the checks a lone
        one would — liveness, decode, error accounting — and the run
        shares one arrival stamp and one :meth:`_admit`.  An expelled
        node's datagrams are read and discarded undecoded; a crashed node
        has no reader here (``crash_node`` removes it, and any callback
        it queued, at once).
        """
        live = node_id in self.registry.connected
        recv = sock.recv
        decode = wire_codec.decode_frame
        now = self.clock()
        run = []
        append = run.append
        try:
            for _ in range(self.resilience.ingress_batch):
                data = recv(_MAX_DATAGRAM)
                if not live:
                    continue
                try:
                    src, message = decode(data)
                except wire_codec.CodecError:
                    self._on_decode_error(data)
                    continue  # malformed datagram: drop, count, never deliver
                append((now, node_id, src, message))
        except BlockingIOError:
            pass  # drained
        except OSError as exc:
            self._on_datagram_error(exc)
        if run:
            self._admit(run)

    def _on_ingress_evict(self, item) -> None:
        """Drop-oldest evicted ``item``; forward it to the probe."""
        probe = self.probe
        if probe is not None:
            probe.on_evicted(item)

    def _ingest(self, dst: NodeId, src: NodeId, message: object) -> None:
        """Admit one decoded stream frame: a run of one."""
        self._admit([(self.clock(), dst, src, message)])

    def _admit(self, run) -> None:
        """Queue a run of ``(t, dst, src, message)`` entries, tell the
        probe each one's fate, and file a drain unless one is filed."""
        admitted = self._ingress.push_run(run)
        probe = self.probe
        if probe is not None:
            for k, (now, _dst, src, message) in enumerate(run):
                probe.on_ingest(src, message, now, k < admitted)
        if not self._drain_filed:
            self._drain_filed = True
            self.loop.call_soon(self._drain)

    def _drain(self) -> None:
        """Deliver one batch, re-filed for the next loop turn while entries
        remain (load leveling); once :meth:`close` began, deliver nothing."""
        try:
            if not self._closing:
                self._deliver_batch(self._ingress.drain(self.resilience.ingress_batch))
        finally:
            self._drain_filed = len(self._ingress) > 0 and not self._closing
            if self._drain_filed:
                self.loop.call_soon(self._drain)

    def _deliver_batch(self, batch) -> None:
        """Deliver drained entries one by one.

        Same-destination runs share the liveness check, the receiver
        lookup and one probe span (``on_dispatched`` stamps the run's
        drain and done times on each of its frames).  A handler that
        raises is counted and reported to the loop; the batch goes on.
        """
        i, n = 0, len(batch)
        connected = self.registry.connected
        probe = self.probe
        while i < n:
            dst = batch[i][1]
            j = i + 1
            while j < n and batch[j][1] == dst:
                j += 1
            if dst not in connected or dst in self._crashed:
                i = j
                continue
            # Filed by open_endpoints before the node's sockets exist,
            # and every queued entry came off one of those.
            receiver, table = self._receivers[dst]
            t_drain = self.clock() if probe is not None else 0.0
            for k in range(i, j):
                _t, _dst, src, message = batch[k]
                try:
                    if table is None:
                        receiver(src, message)
                    else:  # tables hold every wire class
                        handler = table[message.__class__]
                        if handler is not None:
                            handler(src, message)
                except Exception as exc:
                    self.dispatch_errors += 1
                    what = f"{message.__class__.__name__} handler of node {dst} raised"
                    self.loop.call_exception_handler({"message": what, "exception": exc})
            if probe is not None:
                probe.on_dispatched(batch, i, j, t_drain, self.clock())
            i = j

    def _on_decode_error(self, data: bytes) -> None:
        """Account one rejected frame and feed the claimed peer's breaker.

        The frame header is unauthenticated, so attribution follows the
        *claimed* source id (like an IP source address): its counter
        rises and its egress breaker records a failure, which after
        ``FAILURE_THRESHOLD`` consecutive rejections opens the
        circuit — we stop spending sockets on a peer that talks garbage.
        Unreadable headers land in ``decode_errors_unattributed``, and so
        do claims of an id that never registered: the header's id is a
        free 64-bit field anyone can fill, so only the registry's ids
        may own a counter and a channel, or the tables grow with every
        spoofed datagram.
        """
        self.decode_errors += 1
        claimed = wire_codec.peek_src(data)
        if claimed is None or not self.registry.is_known(claimed):
            self.decode_errors_unattributed += 1
            return
        self.decode_errors_by_peer[claimed] = (
            self.decode_errors_by_peer.get(claimed, 0) + 1
        )
        channel = self._channels.get(claimed)
        if channel is None:
            channel = _PeerChannel(self, claimed)
            self._channels[claimed] = channel
        channel.breaker.record_failure()

    async def _serve_stream(self, node_id: NodeId, reader, writer) -> None:
        """Persistent inbound stream: read length-prefixed frames until EOF."""
        conns = self._server_conns.setdefault(node_id, set())
        conns.add(writer)
        task = asyncio.current_task()
        self._serve_tasks.add(task)
        try:
            while True:
                header = await reader.readexactly(_LENGTH.size)
                (length,) = _LENGTH.unpack(header)
                if length > wire_codec.MAX_FRAME_BYTES:
                    # A hostile length prefix: reject *before* allocating
                    # and kill the stream — framing is unrecoverable.
                    self._on_decode_error(b"")
                    break
                payload = await reader.readexactly(length)
                if node_id not in self.registry.connected or node_id in self._crashed:
                    continue
                try:
                    src, message = wire_codec.decode_frame(payload)
                except wire_codec.CodecError:
                    self._on_decode_error(payload)
                    continue
                self._ingest(node_id, src, message)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            pass
        finally:
            conns.discard(writer)
            self._serve_tasks.discard(task)
            writer.close()

    # ------------------------------------------------------------------
    # introspection & teardown
    # ------------------------------------------------------------------
    def resilience_snapshot(self) -> Dict[str, object]:
        """JSON-safe state of the resilience layer (for reports/metrics).

        The payload carries a stable ``schema`` tag
        (:data:`~repro.runtime.resilience.RESILIENCE_SNAPSHOT_SCHEMA`);
        the full counter schema is documented in docs/RESILIENCE.md.
        """
        breakers = BreakerCounters()
        states: Dict[str, int] = {}
        for channel in self._channels.values():
            breakers.merge(channel.breaker.counters)
            states[channel.breaker.state] = states.get(channel.breaker.state, 0) + 1
        return {
            "schema": RESILIENCE_SNAPSHOT_SCHEMA,
            "breaker": breakers.as_dict(),
            "breaker_states": states,
            "ingress": self._ingress.as_dict(),
            "connect_failures": self.connect_failures,
            "frames_abandoned": self.frames_abandoned,
            "dispatch_errors": self.dispatch_errors,
            "decode_errors": {
                "total": self.decode_errors,
                "unattributed": self.decode_errors_unattributed,
                "by_peer": {
                    str(peer): count
                    for peer, count in sorted(self.decode_errors_by_peer.items())
                },
            },
        }

    async def close(self) -> None:
        """Tear down all endpoints and channels (a filed drain then delivers nothing)."""
        self._closing = True
        for channel in self._channels.values():
            channel.close()
        for sock in self._endpoints.values():
            self._release(sock)
        for writers in self._server_conns.values():
            for writer in writers:
                writer.close()
        for server in self._servers.values():
            server.close()
            await server.wait_closed()
        if self._serve_tasks:
            # Closed writers give the stream handlers EOF; let them exit
            # before the loop shuts down (avoids cancellation noise).
            await asyncio.gather(*list(self._serve_tasks), return_exceptions=True)
        self._endpoints.clear()
        self._servers.clear()
        self._server_conns.clear()
        # _channels is kept: resilience_snapshot() reads breaker state
        # after teardown (their writer tasks are cancelled above).


class _PeriodicHandle:
    """Asyncio counterpart of the simulator's periodic timer."""

    def __init__(self, loop, interval, callback, first_delay, jitter) -> None:
        self._loop = loop
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self.stopped = False
        self._handle = loop.call_later(max(0.0, first_delay), self._tick)

    def _tick(self) -> None:
        if self.stopped:
            return
        self._callback()
        if self.stopped:
            return
        delay = self.interval + (self._jitter() if self._jitter is not None else 0.0)
        self._handle = self._loop.call_later(max(0.001, delay), self._tick)

    def stop(self) -> None:
        self.stopped = True
        if self._handle is not None:
            self._handle.cancel()
