"""The simulated network: lossy datagrams and reliable streams.

The dissemination and direct-verification path runs over UDP (cheap,
lossy); local-history audits run over TCP (reliable, §5.3).  The network
object models both channels of :class:`repro.wire.Transport` on top of
the same latency models:

* ``UDP`` — subject to the loss model; one latency sample.
* ``TCP`` — never lost; per-message latency inflated by
  ``TCP_LATENCY_FACTOR`` (handshake + acknowledgement round trips).

The caller names the channel; a protocol node sends each wire kind on
the one its declaration names (:data:`repro.wire.TCP_KINDS`).

Every transmission is serialised through the sender's
:class:`~repro.sim.bandwidth.UploadLink` and accounted in the
:class:`~repro.sim.trace.MessageTrace`, at its size in the paper's byte
model: :data:`repro.wire.MODEL_SIZES`, derived from the kinds'
declarations, and 64 bytes for any class outside the wire.

A protocol node runs here through :class:`SimTransport`, the host
contract the asyncio runtime's transport also satisfies.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Protocol

_INF = math.inf

from heapq import heapify, heappush

from repro.sim.bandwidth import UploadLink
from repro.sim.engine import DEFERRED, DeliveryTimeline, Simulator
from repro.sim.latency import SAMPLE_BLOCK, ConstantLatency, LatencyModel, UniformLatency
from repro.sim.loss import LossModel, NoLoss, PerNodeLoss
from repro.sim.trace import MessageTrace
from repro.util.validation import require, require_node_id
from repro.wire import MODEL_SIZES, UDP, Transport

NodeId = int

#: Multiplier on the latency sample for TCP messages (handshake +
#: acknowledgement round trips).  The paper's audits tolerate this
#: because they are sporadic.
TCP_LATENCY_FACTOR = 2.0


class Endpoint(Protocol):
    """Anything that can receive messages from the network."""

    node_id: NodeId

    def on_message(self, src: NodeId, message: object) -> None:
        """Handle a delivered message."""


class Network:
    """Connects registered endpoints through modelled channels.

    Parameters
    ----------
    sim:
        The discrete-event engine driving delivery times.
    latency:
        One-way delay model (defaults to a 50 ms constant).
    loss:
        Datagram loss model (defaults to no loss).
    use_timeline:
        Schedule deliveries on a calendar-queue
        :class:`~repro.sim.engine.DeliveryTimeline` attached to the
        engine (O(1) amortized per message) instead of the binary heap.
        ``Simulator.call_later`` calls ride the same calendar, and this
        network's drain fires them.  ``False`` is the engine-level
        reference scheduler: everything on the heap, identical firing
        order, which is what ``tests/sim/test_timeline.py`` compares the
        calendar against.  A simulator holds at most one timeline: a
        second network on the same engine silently keeps the heap path.

    Either way a message reaches its endpoint one way only: one
    delivery event per message, through the endpoint's
    ``dispatch_table`` (or ``on_message`` when it publishes none).
    Node ids are indices into one dense table, so :meth:`register`
    accepts only ids that pass
    :func:`~repro.util.validation.require_node_id`; destinations named
    by a sender are unvalidated input and unknown ones are skipped.

    The ``latency`` and ``loss`` models are fixed at construction (their
    *state* may be mutated — ``set_node_loss`` etc. — but the attributes
    must not be rebound afterwards: the send fast path specialises on
    their concrete types once, here in ``__init__``, and the timeline
    bucket width is sized from the latency model's
    ``delivery_window()`` hint).
    """

    __slots__ = (
        "sim",
        "latency",
        "loss",
        "trace",
        "_endpoints",
        "_links",
        "_disconnected",
        "_size_cache",
        "_receivers",
        "_loss_inline",
        "_latency_inline",
        "_deliver_cb",
        "_timeline",
        "fault_plane",
    )

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        loss: Optional[LossModel] = None,
        use_timeline: bool = True,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else ConstantLatency()
        self.loss = loss if loss is not None else NoLoss()
        #: byte/message accounting of everything this network carries.
        self.trace = MessageTrace()
        # ``send`` runs once per message; for the exact stock model
        # types (not subclasses, whose overrides must keep winning) the
        # per-message model calls are inlined into the send path.  The
        # inlined bodies replicate the models' block-buffered sampling
        # statement for statement, so the RNG draw sequence is
        # bit-identical either way.
        self._loss_inline = type(self.loss) is PerNodeLoss
        self._latency_inline = type(self.latency) is UniformLatency
        # The one bound delivery callback every heap entry carries —
        # a stable identity lets :meth:`_purge_in_flight` recognise
        # this network's deliveries in the simulator queue.
        self._deliver_cb = self._deliver
        self._endpoints: Dict[NodeId, Endpoint] = {}
        self._links: Dict[NodeId, UploadLink] = {}
        self._disconnected: set = set()
        # type -> model bytes (an int) or the sizer of one message: the
        # wire's kinds from the start, any other class 64 B on first send.
        self._size_cache: Dict[type, object] = dict(MODEL_SIZES)
        # Dense receiver table, index == node id: ``(endpoint, dispatch
        # table or None)`` per registered node, ``None`` otherwise.  The
        # stream source (id -1) occupies the last slot via Python's
        # negative-index rule — the list is kept at max id + 2 entries
        # so no registered id can alias it.  Delivery jumps straight to
        # the handler when the endpoint publishes a table, and the send
        # fan-out's membership probe is one list index.
        self._receivers: list = [None, None]
        # --- the calendar-queue delivery tier --------------------------
        # Bucket width heuristic: an eighth of the latency spread, at
        # least half the minimum delay (so constant-latency models get
        # sensibly coarse buckets), floored at 1 ms.
        self._timeline: Optional[DeliveryTimeline] = None
        #: optional :class:`~repro.faults.FaultPlane`
        #: (``SimCluster.attach_faults`` installs it): every send then
        #: consults ``on_send`` — injected drops are accounted as lost in
        #: the trace, slow-link extra delay is added to the latency
        #: sample; absent, the send loop pays one hoisted ``is not None``.
        self.fault_plane = None
        if use_timeline and sim._timeline is None and sim.now >= 0.0:
            window = getattr(self.latency, "delivery_window", None)
            min_delay, span = window() if window is not None else (0.0, 0.0)
            timeline = DeliveryTimeline(max(span / 8.0, min_delay / 2.0, 0.001))
            sim.attach_timeline(timeline, self._drain)
            self._timeline = timeline

    # ------------------------------------------------------------------
    # membership of the network fabric
    # ------------------------------------------------------------------
    def register(self, endpoint: Endpoint, upload_rate: float = math.inf) -> None:
        """Attach ``endpoint`` under its ``node_id``.

        The id must satisfy :func:`~repro.util.validation.require_node_id`
        (the stream source's -1 included) and be unused; either breach
        raises ``ValueError`` before the network is touched.  An
        endpoint that exposes a type-keyed ``dispatch_table`` (see
        ``GossipNode.dispatch_table``) is delivered to through it,
        without the intermediate ``on_message`` frame; the table must be
        fixed after registration.
        """
        node_id = require_node_id(endpoint.node_id, allow_source=True)
        require(node_id not in self._endpoints, "node %s already registered", node_id)
        self._endpoints[node_id] = endpoint
        self._links[node_id] = UploadLink(upload_rate)
        receivers = self._receivers
        need = node_id + 2  # own slot plus the source slot at [-1]
        if need > len(receivers):
            # The old last slot held the source entry; it becomes an
            # interior (still unregistered) slot after the growth.
            source_entry = receivers[-1]
            receivers[-1] = None
            receivers.extend([None] * (need - len(receivers)))
            receivers[-1] = source_entry
        receivers[node_id] = (endpoint, getattr(endpoint, "dispatch_table", None))

    def link(self, node: NodeId) -> UploadLink:
        """The upload link of ``node``."""
        return self._links[node]

    def disconnect(self, node: NodeId) -> None:
        """Expel ``node`` from the fabric: it can no longer send or receive.

        This is the enforcement end of LiFTinG — managers call it when a
        node's score crosses the expulsion threshold or it fails an
        entropy audit.
        """
        self._disconnected.add(node)

    def reconnect(self, node: NodeId) -> None:
        """Undo :meth:`disconnect` (used by churn experiments).

        In-flight messages addressed to the node are purged first: they
        were sent to the *previous* process and sat in buffers the crash
        destroyed.  Without the purge, a delivery delayed past the whole
        outage (e.g. by a scripted slow-link fault) would be handed to
        the restarted process as if nothing had happened.
        """
        if node in self._disconnected:
            self._purge_in_flight(node)
        self._disconnected.discard(node)

    def _purge_in_flight(self, node: NodeId) -> int:
        """Drop queued deliveries addressed to ``node``; returns count.

        Sends *to* a disconnected node are refused at the source, so
        everything found here was already in flight when the node went
        down.  Purged messages are accounted as lost in the trace, same
        as a datagram dropped on the wire.

        Deferred calls share the calendar with deliveries and stay: a
        node's timers are its own process's business, not buffered
        traffic.  Their ``dst`` slot holds ``DEFERRED``, which equals no
        node id, so the destination match below never selects one (on
        the heap they carry their own callback, not ``_deliver_cb``).
        """
        lost = self.trace._lost
        dropped = 0
        tl = self._timeline
        if tl is not None:
            cur, pos = tl.cur, tl.cur_pos
            if pos < len(cur):
                kept = [e for e in cur[pos:] if e[3] != node]
                removed = (len(cur) - pos) - len(kept)
                if removed:
                    for e in cur[pos:]:
                        if e[3] == node:
                            lost[e[4].__class__] += 1
                    cur[pos:] = kept
                    dropped += removed
            for bucket in tl._ring:
                if not bucket:
                    continue
                kept = [e for e in bucket if e[3] != node]
                removed = len(bucket) - len(kept)
                if removed:
                    for e in bucket:
                        if e[3] == node:
                            lost[e[4].__class__] += 1
                    # In place: bucket identity is aliased by the
                    # timeline's occupied-index heap bookkeeping.
                    bucket[:] = kept
                    dropped += removed
            tl.count -= dropped
        # The heap tier (past-horizon outliers; everything without a
        # calendar).  In place: a run in progress and the drain alias
        # the list.
        queue = self.sim._queue
        deliver = self._deliver_cb
        kept = [e for e in queue if e[2] is not deliver or e[3][1] != node]
        removed = len(queue) - len(kept)
        if removed:
            for e in queue:
                if e[2] is deliver and e[3][1] == node:
                    lost[e[3][2].__class__] += 1
            queue[:] = kept
            heapify(queue)
            dropped += removed
        return dropped

    def is_connected(self, node: NodeId) -> bool:
        """True if ``node`` is registered and not expelled."""
        return node in self._endpoints and node not in self._disconnected

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        src: NodeId,
        dst: NodeId,
        message: object,
        transport: Transport = UDP,
    ) -> bool:
        """Send ``message`` from ``src`` to ``dst``.

        Returns True if the message was put on the wire (it may still be
        lost in flight on UDP).  Sends from or to expelled nodes, and to
        unregistered destinations, are short-circuited *before* the
        sender's upload link or the byte trace is charged — an expelled
        peer's address is dead, so no bandwidth is spent on it (this
        keeps the Table 5 accounting honest) — and return False so
        callers can observe it.

        A unicast is a one-destination fan-out: the whole send path
        lives in :meth:`send_many` (one copy of the inlined model
        bodies), and a message counts as "put on the wire" even when
        the loss model then drops it, so the count/bool conversion here
        is exact.
        """
        return self.send_many(src, (dst,), message, transport) > 0

    def send_many(self, src: NodeId, dsts, message: object, transport: Transport = UDP) -> int:
        """Send one ``message`` to several destinations.

        The per-destination loss/latency draw sequence and all
        accounting are exactly those of a per-destination ``send`` loop,
        with the per-message fixed costs (sender guard, wire sizing,
        trace update) hoisted out of the loop.  The gossip fan-outs
        (propose → ``f`` partners, confirm → witnesses, blame → ``M``
        managers) are the bulk of all traffic, which makes this the
        hottest entry point of the simulator — :meth:`send` delegates
        here with a one-element tuple, so this is the *only* copy of
        the send path.

        The ``PerNodeLoss`` / ``UniformLatency`` / ``record_sent``
        bodies are inlined verbatim for the exact stock model types (a
        per-message frame each otherwise); the fallback calls the
        models, and ``tests/sim/test_network.py`` pins the two paths to
        the same RNG draw stream.

        Returns the number of messages put on the wire (lost-in-flight
        datagrams included, as in :meth:`send`).
        """
        endpoints = self._endpoints
        disconnected = self._disconnected
        if disconnected and src in disconnected:
            return 0
        if src not in endpoints:
            require(False, "unknown sender %s", src)

        cls = message.__class__
        try:
            cached = self._size_cache[cls]
        except KeyError:
            cached = self._size_cache[cls] = 64
        size = cached if type(cached) is int else int(cached(message))

        sim = self.sim
        now = sim.now  # constant for the whole fan-out: no event fires here
        link = self._links[src]
        link_unbounded = link.rate == _INF
        if not link_unbounded and not size >= 0:  # negated form also rejects NaN
            require(False, "size_bytes must be >= 0, got %r", size)
        loss = self.loss
        loss_inline = self._loss_inline and transport is UDP
        latency = self.latency
        latency_inline = self._latency_inline
        udp = transport is UDP
        queue = sim._queue
        deliver = self._deliver_cb
        trace = self.trace
        lost_counts = None
        fault = self.fault_plane
        # Per-fan-out hoists of the inlined model state: the source
        # loss factor is destination-independent, and a sample block is
        # either the models' initial empty list or SAMPLE_BLOCK long
        # (every refill draws exactly that many) — this keeps the whole
        # fan-out free of len() and repeated dict lookups while the
        # float expressions stay associatively identical to the models'.
        if loss_inline:
            node_loss = loss.node_loss
            if node_loss:
                p_fixed = None
                keep = (1.0 - loss.base) * (1.0 - node_loss.get(src, 0.0))
            else:
                p_fixed = 1.0 - (1.0 - loss.base)
            loss_block = loss._block
            loss_len = SAMPLE_BLOCK if loss_block else 0
        if latency_inline:
            lat_block = latency._block
            lat_len = SAMPLE_BLOCK if lat_block else 0
        # Calendar-queue tier state (see DeliveryTimeline.add, whose
        # common branch is inlined below: one list append per message).
        tl = self._timeline
        if tl is not None:
            tl_ring = tl._ring
            tl_mask = tl._mask
            tl_order = tl._order
            tl_inv_width = tl.inv_width
            tl_horizon = tl.horizon
            base_idx = int(now * tl_inv_width)
        tl_added = 0

        receivers = self._receivers
        sent = 0
        for dst in dsts:
            # Membership probe: one list index (``None`` ==
            # "unregistered").  Destinations are unvalidated input (a
            # Byzantine ``Ack.partners``, say): ids below -1 would wrap
            # into the table, hence the guard; out-of-range and non-int
            # ids raise out of the comparison or the index and are
            # skipped like any unknown destination.
            try:
                if dst < -1 or receivers[dst] is None:
                    continue
            except (IndexError, TypeError):
                continue
            if disconnected and dst in disconnected:
                continue
            link.bytes_sent += size
            if link_unbounded:
                departure = now
            else:  # UploadLink.transmit, verbatim
                departure = link.free_at
                if now > departure:
                    departure = now
                departure += size / link.rate
                link.free_at = departure
            sent += 1

            if udp:
                if loss_inline:  # PerNodeLoss.is_lost, verbatim
                    if p_fixed is not None:
                        p = p_fixed
                    else:
                        p = 1.0 - keep * (1.0 - node_loss.get(dst, 0.0))
                    if p <= 0.0:
                        dropped = False
                    else:
                        i = loss._next
                        if i >= loss_len:
                            loss_block = loss._block = loss._rng.random(SAMPLE_BLOCK).tolist()
                            loss_len = SAMPLE_BLOCK
                            i = 0
                        loss._next = i + 1
                        dropped = loss_block[i] < p
                else:
                    dropped = loss.is_lost(src, dst)
                if dropped:
                    if lost_counts is None:
                        lost_counts = trace._lost
                    lost_counts[cls] += 1
                    continue

            if fault is not None:
                # Scripted faults: a partition/targeted drop eats the
                # message after the link was charged (it *was* sent);
                # slow links add ``fate`` seconds to the arrival below.
                fate = fault.on_send(now, src, dst, message)
                if fate < 0.0:
                    if lost_counts is None:
                        lost_counts = trace._lost
                    lost_counts[cls] += 1
                    continue

            if latency_inline:  # UniformLatency.sample, verbatim
                i = latency._next
                if i >= lat_len:
                    lat_block = latency._block = latency._rng.uniform(
                        latency.low, latency.high, SAMPLE_BLOCK
                    ).tolist()
                    lat_len = SAMPLE_BLOCK
                    i = 0
                latency._next = i + 1
                delay = lat_block[i]
            else:
                delay = latency.sample(src, dst)
            if not udp:
                delay *= TCP_LATENCY_FACTOR
            if fault is not None and fate > 0.0:
                delay += fate
            arrival = (departure if departure > now else now) + delay
            # Keeping Simulator.schedule's time validation as one
            # comparison: a buggy latency model returning a negative or
            # NaN delay must raise here, not silently rewind the clock.
            if not (now <= arrival < _INF):
                raise ValueError(
                    f"latency model produced invalid delivery time {arrival!r} "
                    f"(now={now!r}, delay={delay!r})"
                )
            if tl is not None:
                # Inlined DeliveryTimeline.add common branch: a future
                # in-horizon bucket costs one append.  Rare branches
                # (current bucket, cursor rewind) take the method; the
                # past-horizon outlier rides the heap tier — the run
                # loop merges the tiers by (time, seq) either way.
                idx = int(arrival * tl_inv_width)
                if idx > tl.cur_idx and idx - base_idx < tl_horizon:
                    slot = tl_ring[idx & tl_mask]
                    if not slot:
                        heappush(tl_order, idx)
                    slot.append([arrival, sim._sequence, src, dst, message])
                    tl_added += 1
                elif not tl.add([arrival, sim._sequence, src, dst, message], base_idx):
                    heappush(queue, [arrival, sim._sequence, deliver, (src, dst, message)])
            else:
                heappush(queue, [arrival, sim._sequence, deliver, (src, dst, message)])
            sim._sequence += 1

        if sent:
            entry = trace._sent[cls][src]
            entry[0] += sent
            entry[1] += sent * size
        if tl_added:
            tl.count += tl_added
        return sent

    def _deliver(self, src: NodeId, dst: NodeId, message: object) -> None:
        """Heap-tier delivery (past-horizon outliers, ``use_timeline=False``)."""
        disconnected = self._disconnected
        if disconnected and (dst in disconnected or src in disconnected):
            # Expulsion takes effect immediately: in-flight traffic of an
            # expelled node is discarded at delivery time.
            return
        # Only destinations that passed the send-side membership probe
        # are ever scheduled, so the table slot is populated.
        receiver = self._receivers[dst]
        cls = message.__class__
        self.trace._delivered[cls] += 1
        dispatch = receiver[1]
        if dispatch is not None:
            handler = dispatch.get(cls)
            if handler is not None:
                handler(src, message)
            return
        receiver[0].on_message(src, message)

    def _drain(self, until: float, budget) -> int:
        """Fire pending calendar entries in global ``(time, seq)`` order.

        The engine's run loop calls this whenever the timeline head is
        due before the next live heap event; it returns the number of
        entries fired, yielding back when a heap event preempts (checked
        against the heap head per entry, so period ticks interleave
        exactly as they would under the heap scheduler), an entry is due
        past ``until``, ``budget`` entries have fired, or the timeline
        is exhausted.

        A ``DEFERRED`` entry (``Simulator.call_later``) is a call, not a
        delivery: it fires in line as one event, bypassing the receiver
        lookup, the expulsion check and the delivery trace.  Every other
        entry is one delivery through the receiver's dispatch table,
        re-checking expulsion per message exactly like :meth:`_deliver`.
        """
        sim = self.sim
        tl = self._timeline
        queue = sim._queue
        # Timeline entries only exist for destinations that passed the
        # send-side membership probe, so the table serves the lookup by
        # plain index — id -1 (the source) lands on the last slot by
        # Python's negative-index rule.
        receivers = self._receivers
        delivered = self.trace._delivered
        disconnected = self._disconnected
        advance = tl.advance
        fired = 0
        while tl.cur_pos < len(tl.cur) or advance():
            cur = tl.cur
            i = tl.cur_pos
            while True:
                try:
                    e = cur[i]
                except IndexError:
                    tl.cur_pos = i
                    break  # bucket drained; advance to the next one
                t = e[0]
                if t > until:
                    tl.cur_pos = i
                    return fired
                # A heap event due first preempts the drain.
                if queue:
                    h = queue[0]
                    if h[0] < t or (h[0] == t and h[1] < e[1]):
                        tl.cur_pos = i
                        return fired
                if fired >= budget:
                    tl.cur_pos = i
                    return fired
                dst = e[3]
                message = e[4]
                if dst is DEFERRED:
                    tl.cur_pos = i + 1
                    sim.now = t
                    fired += 1
                    e[2](*message)
                    i += 1
                    continue
                tl.cur_pos = i + 1
                sim.now = t
                fired += 1
                if disconnected and (dst in disconnected or e[2] in disconnected):
                    i += 1
                    continue
                cls = message.__class__
                delivered[cls] += 1
                receiver = receivers[dst]
                dispatch = receiver[1]
                if dispatch is not None:
                    # Subscript, not .get: GossipNode pre-seeds every
                    # wire class (missing handlers as None), so this
                    # only raises for non-protocol message types.
                    try:
                        handler = dispatch[cls]
                    except KeyError:
                        handler = None
                    if handler is not None:
                        handler(e[2], message)
                else:
                    receiver[0].on_message(e[2], message)
                # Handlers never move the cursor (re-entrant adds insort
                # at or after it), so the next index is simply i + 1.
                i += 1
        return fired


class SimTransport:
    """The simulator as a protocol node's host.

    The host contract both planes satisfy under the same names
    (:class:`repro.runtime.transport.AsyncTransport` is the other):
    ``timeline``, whose ``now`` is the current time — here the
    :class:`~repro.sim.engine.Simulator` itself, so a read is a slot
    read; ``call_later`` and ``send_many(src, dsts, message, kind)``,
    bound here to the engine's and the network's own methods, so a node
    that binds them in turn calls them with no facade frame between;
    ``call_every``; and the fabric names a
    :class:`~repro.deployment.Deployment` adds (``clock`` /
    ``is_connected`` / ``disconnect`` / ``expel``).  ``disconnect`` and
    ``expel`` are both the network's ``disconnect``: the simulated
    fabric has one way to drop a node, and permanence is the membership
    ledger's job.
    """

    def __init__(self, sim: Simulator, network: Network) -> None:
        self.timeline = sim
        self.call_later = sim.call_later
        self.send_many = network.send_many
        self.is_connected = network.is_connected
        self.disconnect = self.expel = network.disconnect

    def clock(self) -> float:
        return self.timeline.now

    def call_every(self, interval: float, callback, *, first_delay: float, jitter=None):
        sim = self.timeline
        return sim.call_every(interval, callback, first_at=sim.now + first_delay, jitter=jitter)
