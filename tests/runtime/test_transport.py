"""Transport-level tests: registry expulsion edge cases, the send
contract, datagram error surfacing, the run-per-readiness-event UDP
ingress, and the persistent reliable path."""

import asyncio
import cProfile
import gc
import pstats
import socket
import warnings

import numpy as np
import pytest

from repro import wire_codec
from repro.faults import FaultPlane, FaultSchedule
from repro.runtime.resilience import (
    FAILURE_THRESHOLD,
    ResilienceConfig,
    RetryPolicy,
    STATE_CLOSED,
    STATE_HALF_OPEN,
    STATE_OPEN,
)
from repro.config import planetlab_params
from repro.deployment import loopback_config
from repro.gossip.protocol import GossipNode
from repro.nodes.behavior import HonestBehavior
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.runtime.transport import EGRESS_QUEUE_LIMIT, AsyncTransport, NodeRegistry
from repro.wire import UDP, TCP_KINDS, AuditRequest, Ping as WirePing, Serve


def Ping(value: int) -> WirePing:
    """A real wire message carrying ``value`` (the codec rejects ad-hoc
    classes, which is the point of the schema)."""
    return WirePing(seq=value, incarnation=0, updates=())


class TestNodeRegistryExpulsion:
    def test_unknown_node(self):
        registry = NodeRegistry()
        assert not registry.is_connected(9)
        assert registry.udp_address(9) is None
        assert registry.tcp_address(9) is None

    def test_expel_before_register_is_permanent(self):
        # Expulsion is a sanction on the identity, not the address:
        # re-registering endpoints must not lift it.
        registry = NodeRegistry()
        registry.expel(5)
        registry.register(5, ("127.0.0.1", 1000), ("127.0.0.1", 1001))
        assert not registry.is_connected(5)
        assert registry.connected == set()  # what the per-frame paths read
        assert registry.udp_address(5) is None
        assert registry.tcp_address(5) is None

    def test_double_expel_is_idempotent(self):
        registry = NodeRegistry()
        registry.register(5, ("127.0.0.1", 1000), ("127.0.0.1", 1001))
        assert registry.is_connected(5) and registry.connected == {5}
        registry.expel(5)
        registry.expel(5)
        assert not registry.is_connected(5)
        assert registry.connected == set()


    def test_connected_implies_registered(self):
        # send subscripts ``udp`` for any destination in ``connected``
        registry = NodeRegistry()
        steps = [
            lambda: registry.register(1, ("127.0.0.1", 1000), ("127.0.0.1", 1001)),
            lambda: registry.expel(2),
            lambda: registry.register(2, ("127.0.0.1", 1002), ("127.0.0.1", 1003)),
            lambda: registry.expel(1),
            lambda: registry.register(1, ("127.0.0.1", 1004), ("127.0.0.1", 1005)),
            lambda: registry.register(3, ("127.0.0.1", 1006), ("127.0.0.1", 1007)),
        ]
        for step in steps:
            step()
            assert registry.connected <= registry.udp.keys()
        assert registry.connected == {3}
        assert registry.udp[3] == registry.udp_address(3) == ("127.0.0.1", 1006)


class TestDatagramErrors:
    def test_transport_counts_datagram_errors(self):
        async def scenario():
            transport = AsyncTransport(asyncio.get_running_loop(), NodeRegistry())
            transport._on_datagram_error(OSError(111, "Connection refused"))
            transport._on_datagram_error(OSError(113, "No route to host"))
            return transport.datagram_errors

        assert asyncio.run(scenario()) == 2


def fast_resilience():
    """Aggressive timeouts so breaker transitions happen within a test."""
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        breaker_reset_timeout=0.1,
    )


async def make_pair(node_ids=(1, 2), **transport_kwargs):
    """A transport with endpoints bound for ``node_ids``; returns the
    transport and a dict of per-node received (src, message) lists."""
    registry = NodeRegistry()
    transport = AsyncTransport(
        asyncio.get_running_loop(), registry,
        resilience=transport_kwargs.pop("resilience", fast_resilience()),
        **transport_kwargs,
    )
    received = {nid: [] for nid in node_ids}

    def make_receiver(nid):
        def receiver(src, message):
            received[nid].append((src, message))
        return receiver

    for nid in node_ids:
        await transport.open_endpoints(nid, make_receiver(nid))
    return transport, received


async def settle(condition, timeout=2.0, interval=0.01):
    """Await a condition with a deadline (loopback delivery is fast but
    asynchronous)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


def frames_from(src, count):
    """``count`` encoded Ping frames claiming ``src``, seq 0, 1, 2, ..."""
    return [wire_codec.encode_frame(src, Ping(seq)) for seq in range(count)]


def spray(address, frames):
    """Write ``frames`` to ``address`` from a plain socket.  Loopback
    delivery is synchronous: they all sit in the receiver's kernel
    buffer before the event loop gets its next turn."""
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for frame in frames:
            sock.sendto(frame, address)


class RecordingProbe:
    """The transport's three probe hooks, recorded."""

    def __init__(self):
        self.ingested = []  # (t_ingest, src, seq, accepted)
        self.evicted = []  # seq

    def on_ingest(self, src, message, t_ingest, accepted):
        self.ingested.append((t_ingest, src, message.seq, accepted))

    def on_evicted(self, item):
        self.evicted.append(item[3].seq)

    def on_dispatched(self, batch, lo, hi, t_drain, t_done):
        pass


class FailingSocket:
    """Stands in for a node's UDP socket: every I/O call raises ``exc``."""

    def __init__(self, exc):
        self.exc = exc

    def recv(self, _size):
        raise self.exc

    def sendto(self, _data, _address):
        raise self.exc


class TestSendContract:
    def test_expelled_sender_refused_on_both_paths(self):
        async def scenario():
            transport, _received = await make_pair()
            transport.registry.expel(1)
            udp_ok = transport.send(1, 2, Ping(1), reliable=False)
            tcp_ok = transport.send(1, 2, Ping(2), reliable=True)
            refused = transport.sends_refused
            await transport.close()
            return udp_ok, tcp_ok, refused

        udp_ok, tcp_ok, refused = asyncio.run(scenario())
        assert udp_ok is False
        assert tcp_ok is False
        assert refused == 2

    def test_expelled_destination_refused(self):
        async def scenario():
            transport, _received = await make_pair()
            transport.registry.expel(2)
            results = (
                transport.send(1, 2, Ping(1), reliable=False),
                transport.send(1, 2, Ping(2), reliable=True),
            )
            refused = transport.sends_refused
            await transport.close()
            return results, refused

        results, refused = asyncio.run(scenario())
        assert results == (False, False)
        assert refused == 2

    def test_unknown_destination_refused(self):
        async def scenario():
            transport, _received = await make_pair()
            ok = transport.send(1, 99, Ping(1), reliable=False)
            refused = transport.sends_refused
            await transport.close()
            return ok, refused

        ok, refused = asyncio.run(scenario())
        assert ok is False
        assert refused == 1

    def test_crashed_source_refused(self):
        async def scenario():
            transport, _received = await make_pair()
            transport.crash_node(1)
            ok = transport.send(1, 2, Ping(1), reliable=False)
            refused = transport.sends_refused
            await transport.close()
            return ok, refused

        ok, refused = asyncio.run(scenario())
        assert ok is False
        assert refused == 1

    def test_a_registered_node_this_transport_never_bound_is_refused(self):
        async def scenario():
            transport, _received = await make_pair()
            transport.registry.register(7, ("127.0.0.1", 9), ("127.0.0.1", 9))
            ok = transport.send(7, 2, Ping(1), reliable=False)  # no socket to send from
            refused = transport.sends_refused
            await transport.close()
            return ok, refused

        assert asyncio.run(scenario()) == (False, 1)

    def test_a_full_egress_queue_refuses_and_a_late_expulsion_abandons_it(self):
        async def scenario():
            transport, received = await make_pair()
            # No await in between: the writer task has not run, so every
            # frame is still queued when the next one is submitted.
            results = [
                transport.send(1, 2, Ping(seq), reliable=True)
                for seq in range(EGRESS_QUEUE_LIMIT + 1)
            ]
            refused = transport.sends_refused
            transport.registry.expel(2)  # before the writer ever connects
            abandoned = await settle(lambda: transport.frames_abandoned == EGRESS_QUEUE_LIMIT)
            failures = transport._channels[2].breaker.counters.failures
            inbox = list(received[2])
            await transport.close()
            return results, refused, abandoned, failures, inbox

        results, refused, abandoned, failures, inbox = asyncio.run(scenario())
        assert results == [True] * EGRESS_QUEUE_LIMIT + [False] and refused == 1
        assert abandoned and failures == 1
        assert inbox == []

    @pytest.mark.parametrize("exc, expected", [
        (OSError(111, "Connection refused"), {"errors": 2, "dropped": 0}),
        (BlockingIOError(11, "Resource temporarily unavailable"), {"errors": 0, "dropped": 2}),
    ], ids=["oserror", "would-block"])
    def test_a_failing_sendto_is_counted_and_still_accepted(self, exc, expected):
        # The sender did its part: a full send buffer is UDP losing a
        # datagram, any other socket error is a counted error, and
        # neither is a refusal.
        async def scenario():
            transport, _received = await make_pair()
            address = transport.registry.udp_address(2)
            real = transport._endpoints[1]
            transport._endpoints[1] = FailingSocket(exc)
            try:
                ok = transport.send(1, 2, Ping(1), reliable=False)
                transport._sendto_late(1, b"late", address)  # the fault-delayed twin
            finally:
                transport._endpoints[1] = real
            counts = {"errors": transport.datagram_errors, "dropped": transport.datagrams_dropped}
            refused = transport.sends_refused
            await transport.close()
            return ok, counts, refused

        assert asyncio.run(scenario()) == (True, expected, 0)


class TestSendMany:
    """The live fan-out: one ``send`` per destination, in order, each on
    the channel the kind names."""

    @staticmethod
    def spy(transport):
        """Record each ``send`` the fan-out makes as ``(dst, reliable)``."""
        calls = []
        send = transport.send

        def recording(src, dst, message, reliable):
            calls.append((dst, reliable))
            return send(src, dst, message, reliable)

        transport.send = recording
        return calls

    def test_destinations_in_order_refusals_skipped_and_counted_once(self):
        async def scenario():
            transport, received = await make_pair(node_ids=(1, 2, 3, 4, 5))
            transport.registry.expel(3)
            calls = self.spy(transport)
            sent = transport.send_many(1, (4, 3, 99, 2, 5), Ping(1), UDP)
            refused = transport.sends_refused
            delivered = await settle(lambda: all(received[n] for n in (2, 4, 5)))
            inbox = {n: list(received[n]) for n in received}
            await transport.close()
            return calls, sent, refused, delivered, inbox

        calls, sent, refused, delivered, inbox = asyncio.run(scenario())
        assert calls == [(4, False), (3, False), (99, False), (2, False), (5, False)]
        assert sent == 3  # the accepted count
        assert refused == 2  # the expelled 3 and the unknown 99, once each
        assert delivered
        assert inbox[3] == [] and inbox[1] == []
        assert all(inbox[n] == [(1, Ping(1))] for n in (2, 4, 5))

    def test_a_tcp_kind_takes_the_reliable_path(self):
        async def scenario():
            transport, received = await make_pair()
            gossip, lifting = planetlab_params()
            node = GossipNode(1, transport, None, gossip, lifting, HonestBehavior())
            calls = self.spy(transport)
            sent = node.send_many((2,), AuditRequest(periods=3))
            delivered = await settle(lambda: received[2])
            channel = 2 in transport._channels
            await transport.close()
            return calls, sent, delivered, channel

        calls, sent, delivered, channel = asyncio.run(scenario())
        assert AuditRequest in TCP_KINDS
        assert calls == [(2, True)] and sent == 1
        assert delivered and channel  # over the peer's persistent stream


class TestDeliveryPaths:
    def test_udp_roundtrip_through_ingress_pump(self):
        async def scenario():
            transport, received = await make_pair()
            assert transport.send(1, 2, Ping(7), reliable=False)
            ok = await settle(lambda: len(received[2]) == 1)
            await transport.close()
            return ok, received[2]

        ok, inbox = asyncio.run(scenario())
        assert ok
        assert inbox == [(1, Ping(7))]

    def test_reliable_path_is_persistent_and_framed(self):
        async def scenario():
            transport, received = await make_pair()
            transport.probe = probe = RecordingProbe()
            for i in range(10):
                assert transport.send(1, 2, Ping(i), reliable=True)
            ok = await settle(lambda: len(received[2]) == 10)
            channels = len(transport._channels)
            counters = transport._channels[2].breaker.counters
            await transport.close()
            return ok, received[2], channels, counters, probe.ingested

        ok, inbox, channels, counters, ingested = asyncio.run(scenario())
        assert ok
        assert [m.seq for _src, m in inbox] == list(range(10))
        # the stage probe sees the stream's frames like any datagram
        assert [(src, seq, accepted) for _t, src, seq, accepted in ingested] == [
            (1, seq, True) for seq in range(10)
        ]
        assert channels == 1  # one persistent channel, not one socket per send
        assert counters.successes >= 1
        assert counters.failures == 0

    def test_ingress_high_water_reported(self):
        async def scenario():
            transport, received = await make_pair()
            for i in range(5):
                transport.send(1, 2, Ping(i), reliable=False)
            await settle(lambda: len(received[2]) == 5)
            snapshot = transport.resilience_snapshot()
            await transport.close()
            return snapshot

        snapshot = asyncio.run(scenario())
        assert snapshot["ingress"]["accepted"] == 5
        assert snapshot["ingress"]["high_water"] >= 1
        assert snapshot["ingress"]["depth"] == 0  # fully drained


class TestRunPerReadinessEvent:
    """One readiness event ingests every datagram the kernel holds (up to
    ``ingress_batch``), each with the checks a lone datagram gets."""

    def test_a_backlog_is_ingested_in_a_handful_of_loop_turns(self):
        backlog = 64

        async def scenario():
            transport, received = await make_pair()
            loop = asyncio.get_running_loop()
            spray(transport.registry.udp_address(2), frames_from(1, backlog))
            turns = 0

            def tick():  # re-arms itself: fires once per loop iteration
                nonlocal turns
                turns += 1
                if len(received[2]) < backlog and turns < 10 * backlog:
                    loop.call_soon(tick)

            loop.call_soon(tick)
            ok = await settle(lambda: len(received[2]) == backlog)
            await transport.close()
            return ok, turns, [message.seq for _src, message in received[2]]

        ok, turns, seqs = asyncio.run(scenario())
        assert ok
        assert seqs == list(range(backlog))
        assert turns <= 8  # a datagram per turn would need >= 64

    def test_closed_loop_call_budget(self):
        # Machine-independent cost witness, as TestCallBudget is for the
        # codec: a frame round the 32-outstanding closed loop is ~13.0
        # profiled calls (73 when every frame paid its own loop turn, 22.6
        # with a lookup frame per send, decode, drain and dispatch, 15.5
        # with a push per frame and a pump task woken by an Event).
        frames, window = 2000, 32

        async def scenario():
            loop = asyncio.get_running_loop()
            if loop.get_debug():  # python -X dev: every callback is wrapped and timed
                pytest.skip("the budget prices the production loop, not asyncio's debug mode")
            transport = AsyncTransport(loop, NodeRegistry())
            message = Serve(proposal_id=1, chunk_id=2, payload_size=3, origin=1)
            done = loop.create_future()  # not an Event: the window must hold none
            received = 0

            def sink(_src, _message):
                nonlocal received
                received += 1
                if received + window <= frames:
                    transport.send(1, 2, message, False)
                elif received == frames:
                    done.set_result(None)

            await transport.open_endpoints(1, lambda _src, _message: None)
            await transport.open_endpoints(2, sink)
            profile = cProfile.Profile()
            profile.enable()
            for _ in range(window):
                transport.send(1, 2, message, False)
            try:
                await asyncio.wait_for(done, timeout=20.0)
            finally:
                profile.disable()
                await transport.close()
            return profile

        entries = asyncio.run(scenario()).getstats()
        calls = sum(entry.callcount for entry in entries)
        assert calls / frames <= 13.6

        def name(entry):
            return getattr(entry.code, "co_qualname", entry.code)

        def count(wanted, within=entries):
            return sum(entry.callcount for entry in within if name(entry) == wanted)

        # gone from the path: the registry lookup, the dispatch frame and
        # the Serve record decoder; the drain hands the deque over whole
        assert count("NodeRegistry.udp_address") == 0
        assert count("AsyncTransport._deliver_local") == 0
        assert count("_record_codec.<locals>.decode") == 0
        drains = [entry for entry in entries if name(entry) == "BoundedIngressQueue.drain"]
        assert drains
        popleft = "<method 'popleft' of 'collections.deque' objects>"
        assert sum(count(popleft, drain.calls or ()) for drain in drains) <= 0.1 * frames
        # a readable run is admitted in one push_run, and the drain is a
        # callback on the loop's ready queue, not a task woken by an Event
        assert count("BoundedIngressQueue.push") == 0
        assert 0 < count("BoundedIngressQueue.push_run") <= count("AsyncTransport._on_readable")
        for woken in ("Event.wait", "Event.set", "sleep", "__sleep0"):
            assert count(woken) == 0, woken

    def test_a_flooded_socket_starves_neither_its_neighbour_nor_the_timers(self):
        batch = 8

        async def scenario():
            loop = asyncio.get_running_loop()
            registry = NodeRegistry()
            transport = AsyncTransport(
                loop, registry, resilience=ResilienceConfig(ingress_batch=batch)
            )
            transport.probe = probe = RecordingProbe()
            log = []
            await transport.open_endpoints(1, lambda _src, _message: log.append("A"))
            await transport.open_endpoints(2, lambda _src, _message: log.append("B"))
            spray(registry.udp_address(1), frames_from(2, 4 * batch))
            spray(registry.udp_address(2), frames_from(1, 1))
            loop.call_soon(log.append, "timer")
            ok = await settle(lambda: len(log) == 4 * batch + 2)
            await transport.close()
            return ok, log, probe

        ok, log, probe = asyncio.run(scenario())
        assert ok
        last_of_the_flood = len(log) - 1 - log[::-1].index("A")
        assert log.index("B") < last_of_the_flood
        assert log.index("timer") < last_of_the_flood
        # a run shares one arrival stamp, so the stamps count the events
        runs = {}
        for stamp, src, _seq, _accepted in probe.ingested:
            if src == 2:  # the flood's claimed source
                runs[stamp] = runs.get(stamp, 0) + 1
        assert sum(runs.values()) == 4 * batch
        assert max(runs.values()) <= batch

    @pytest.mark.parametrize("policy", ["drop-oldest", "reject"])
    def test_the_overflow_policy_runs_on_a_backlog(self, policy):
        capacity, backlog = 8, 64
        excess = backlog - capacity

        async def scenario():
            transport, received = await make_pair(resilience=ResilienceConfig(
                ingress_capacity=capacity, ingress_policy=policy,
            ))
            transport.probe = probe = RecordingProbe()
            spray(transport.registry.udp_address(2), frames_from(1, backlog))
            ok = await settle(
                lambda: len(probe.ingested) == backlog and len(received[2]) == capacity
            )
            ingress = transport.resilience_snapshot()["ingress"]
            await transport.close()
            return ok, ingress, probe, [message.seq for _src, message in received[2]]

        ok, ingress, probe, delivered = asyncio.run(scenario())
        assert ok
        assert ingress["high_water"] == capacity
        refused = [seq for _t, _src, seq, accepted in probe.ingested if not accepted]
        if policy == "drop-oldest":
            assert (ingress["dropped_oldest"], ingress["rejected"]) == (excess, 0)
            assert probe.evicted == list(range(excess))  # every evicted frame seen
            assert refused == []
            assert delivered == list(range(excess, backlog))  # freshest data wins
        else:
            assert (ingress["dropped_oldest"], ingress["rejected"]) == (0, excess)
            assert probe.evicted == []
            assert refused == list(range(capacity, backlog))
            assert delivered == list(range(capacity))

    def test_an_expelled_nodes_datagrams_are_drained_undecoded(self):
        # A crashed node's socket is off the loop: see TestCrashRecovery's
        # test_a_crash_cancels_a_readiness_callback_queued_in_the_same_turn.
        async def scenario():
            transport, received = await make_pair()
            address = transport.registry.udp_address(2)
            transport.expel(2)
            # the last one would be a decode error, were it decoded
            spray(address, frames_from(1, 5) + [b"\xfe\x01"])
            await asyncio.sleep(0.05)
            try:
                left = transport._endpoints[2].recv(64)
            except BlockingIOError:
                left = None  # the socket was drained, not left readable
            outcome = (left, transport.decode_errors, transport._ingress.accepted,
                       received[2])
            await transport.close()
            return outcome

        assert asyncio.run(scenario()) == (None, 0, 0, [])

    def test_a_failing_recv_is_counted(self):
        async def scenario():
            transport, received = await make_pair()
            transport._on_readable(2, FailingSocket(OSError(111, "Connection refused")))
            transport._on_readable(2, FailingSocket(BlockingIOError(11, "drained")))
            # ...and the real socket still delivers afterwards
            assert transport.send(1, 2, Ping(3), reliable=False)
            ok = await settle(lambda: len(received[2]) == 1)
            counts = (transport.datagram_errors, transport.datagrams_dropped)
            await transport.close()
            return ok, counts

        assert asyncio.run(scenario()) == (True, (1, 0))


class TestDrain:
    """The ingress queue is drained by a callback filed on the loop's
    ready queue: a raising handler costs only its own message, and a
    drain filed before ``close`` delivers nothing."""

    def test_a_raising_handler_costs_only_its_own_message(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            seen = []

            def receiver(_src, message):
                seen.append(message.seq)
                if message.seq == 0:
                    raise RuntimeError("handler bug")

            transport, _received = await make_pair()
            await transport.open_endpoints(3, receiver)
            assert transport.send(1, 3, Ping(0), reliable=False)
            await settle(lambda: seen == [0])
            await asyncio.sleep(0.2)
            assert transport.send(1, 3, Ping(1), reliable=False)
            delivered = await settle(lambda: seen == [0, 1])
            snapshot = transport.resilience_snapshot()
            await transport.close()
            return delivered, snapshot, reported

        delivered, snapshot, reported = asyncio.run(scenario())
        assert delivered
        assert snapshot["dispatch_errors"] == 1
        assert snapshot["ingress"]["depth"] == 0
        [context] = reported
        assert isinstance(context["exception"], RuntimeError)
        assert context["message"] == "Ping handler of node 3 raised"

    def test_raises_leave_the_rest_of_the_batch_delivered(self):
        async def scenario():
            transport, received = await make_pair()
            transport.loop.set_exception_handler(lambda _loop, _context: None)

            def explode(_src, _message):
                raise RuntimeError("handler bug")

            transport._receivers[1] = (explode, None)
            for seq in range(3):  # one batch, interleaving the two nodes
                transport._ingest(1, 2, Ping(seq))
                transport._ingest(2, 1, Ping(seq))
            delivered = await settle(lambda: len(received[2]) == 3)
            errors = transport.dispatch_errors
            await transport.close()
            return delivered, errors, [message.seq for _src, message in received[2]]

        assert asyncio.run(scenario()) == (True, 3, [0, 1, 2])

    @pytest.mark.parametrize("path", ["udp", "tcp"])
    def test_close_with_a_drain_filed_delivers_nothing(self, path):
        async def scenario():
            loop = asyncio.get_running_loop()
            reported = []
            loop.set_exception_handler(lambda _loop, context: reported.append(context))
            transport, received = await make_pair()
            if path == "udp":
                spray(transport.registry.udp_address(2), frames_from(1, 4))
                transport._on_readable(2, transport._endpoints[2])  # the run, read now
            else:
                for seq in range(4):
                    transport._ingest(2, 1, Ping(seq))
            filed = (transport._drain_filed, len(transport._ingress))
            await transport.close()  # the filed drain runs inside close's awaits
            await asyncio.sleep(0.05)
            others = asyncio.all_tasks() - {asyncio.current_task()}
            return filed, transport._drain_filed, received[2], others, reported

        filed, still_filed, inbox, others, reported = asyncio.run(scenario())
        assert filed == (True, 4)
        assert not still_filed
        assert inbox == []
        assert others == set()  # no task left pending
        assert reported == []


class TestStreamToAGoneReceiver:
    def test_frames_to_an_expelled_node_are_skipped_and_the_stream_kept(self):
        async def scenario():
            transport, received = await make_pair()
            reader, writer = await asyncio.open_connection(
                *transport.registry.tcp_address(2)
            )
            transport.expel(2)
            for seq in (1, 2):
                payload = wire_codec.encode_frame(1, Ping(seq))
                writer.write(len(payload).to_bytes(4, "big") + payload)
            await writer.drain()
            await asyncio.sleep(0.05)
            after_frames = (transport.decode_errors, len(transport._server_conns[2]))
            # Still read after both skips: a hostile length prefix is
            # checked before liveness, and kills the stream.
            writer.write((wire_codec.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            await writer.drain()
            killed = await settle(lambda: transport.decode_errors == 1)
            closed = await reader.read() == b""
            writer.close()
            await transport.close()
            return after_frames, killed, closed, received[2]

        after_frames, killed, closed, inbox = asyncio.run(scenario())
        assert after_frames == (0, 1)
        assert killed and closed
        assert inbox == []


class TestPeriodicTimer:
    def test_a_callback_that_stops_its_own_timer_ends_it(self):
        async def scenario():
            transport, _received = await make_pair()
            ticks = []

            def tick():
                ticks.append(transport.clock())
                handle.stop()  # what a node's own period does when it leaves

            handle = transport.call_every(0.01, tick, first_delay=0.0)
            await asyncio.sleep(0.06)
            handle._tick()  # a firing that slipped past the cancel does nothing
            await transport.close()
            return len(ticks)

        assert asyncio.run(scenario()) == 1


class FailingWriter:
    """Stands in for a peer channel's stream: the peer closed mid-stream,
    so the next write raises."""

    def __init__(self):
        self.closed = False

    def is_closing(self):
        return False

    def write(self, _data):
        raise ConnectionResetError(104, "Connection reset by peer")

    def close(self):
        self.closed = True


class TestReliableEgressFailures:
    """The connect-retry / backoff and write-failure arms of the peer
    channel, against a peer that is registered, not crashed, and gone."""

    def test_refused_connects_retry_back_off_and_open_the_breaker(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5)

        async def scenario():
            transport, received = await make_pair(
                resilience=ResilienceConfig(retry=retry, breaker_reset_timeout=0.1),
                rng=np.random.default_rng(5),
            )
            twin = np.random.default_rng(5)
            # The server goes away behind the transport's back: node 2 is
            # not in ``_crashed``, so nothing fast-fails the connects.
            server = transport._servers[2]
            server.close()
            await server.wait_closed()

            started = transport.loop.time()
            for seq in range(3):
                assert transport.send(1, 2, Ping(seq), reliable=True) is True
            assert await settle(lambda: transport.frames_abandoned == 3)
            backoff = sum(retry.delay(attempt, twin) for attempt in range(2))
            breaker = transport._channels[2].breaker
            first = (
                transport.connect_failures,
                breaker.counters.failures,
                breaker.state,
                transport.loop.time() - started >= backoff,
                # the injected stream paid for exactly the two sleeps
                transport.rng.random() == twin.random(),
            )

            for cycle in range(1, FAILURE_THRESHOLD):
                assert transport.send(1, 2, Ping(9), reliable=True) is True
                assert await settle(lambda: transport.frames_abandoned == 3 + cycle)
            opened = (transport.connect_failures, breaker.counters.failures, breaker.state)
            refused = transport.send(1, 2, Ping(10), reliable=True)

            await asyncio.sleep(0.12)  # past the reset timeout
            probe = transport.send(1, 2, Ping(11), reliable=True)
            half_open = (probe, breaker.state, breaker.counters.half_open_probes)
            inbox = list(received[2])
            refusals = transport.sends_refused
            await transport.close()
            return first, opened, refused, half_open, inbox, refusals

        first, opened, refused, half_open, inbox, refusals = asyncio.run(scenario())
        assert first == (3, 1, STATE_CLOSED, True, True)
        assert opened == (3 * FAILURE_THRESHOLD, FAILURE_THRESHOLD, STATE_OPEN)
        assert refused is False and refusals == 1
        assert half_open == (True, STATE_HALF_OPEN, 1)
        assert inbox == []

    def test_a_peer_closing_mid_stream_costs_the_batch_and_the_next_send_reconnects(self):
        async def scenario():
            transport, received = await make_pair()
            assert transport.send(1, 2, Ping(1), reliable=True)
            assert await settle(lambda: len(received[2]) == 1)
            channel = transport._channels[2]
            real, broken = channel.writer, FailingWriter()
            channel.writer = broken
            try:
                assert transport.send(1, 2, Ping(2), reliable=True) is True
                assert await settle(lambda: transport.frames_abandoned == 1)
            finally:
                real.close()
            failed = (channel.breaker.counters.failures, broken.closed, channel.writer)
            assert transport.send(1, 2, Ping(3), reliable=True) is True
            delivered = await settle(lambda: len(received[2]) == 2)
            seqs = [message.seq for _src, message in received[2]]
            state = channel.breaker.state
            await transport.close()
            return failed, delivered, seqs, state

        failed, delivered, seqs, state = asyncio.run(scenario())
        assert failed == (1, True, None)  # one failure, stream dropped
        assert delivered and seqs == [1, 3]  # frame 2 was the abandoned batch
        assert state == STATE_CLOSED


def slow_links(extra_delay):
    """A fault plane holding every send back by ``extra_delay`` seconds."""
    return FaultPlane(
        FaultSchedule.from_dicts([{"kind": "slow", "at": 0.0, "extra_delay": extra_delay}])
    )


class TestSlowLinks:
    def test_a_slow_window_delays_both_paths_by_extra_delay(self):
        async def scenario():
            plane = slow_links(0.15)
            transport, received = await make_pair(fault_plane=plane)
            started = transport.loop.time()
            assert transport.send(1, 2, Ping(1), reliable=False) is True
            assert transport.send(1, 2, Ping(2), reliable=True) is True
            await asyncio.sleep(0.05)
            held_back = received[2] == []
            delivered = await settle(lambda: len(received[2]) == 2)
            elapsed = transport.loop.time() - started
            counts = (
                plane.counters()["slowed_messages"],
                transport.sends_refused,
                transport.frames_abandoned,
            )
            await transport.close()
            return held_back, delivered, elapsed, counts

        held_back, delivered, elapsed, counts = asyncio.run(scenario())
        assert held_back and delivered
        assert elapsed >= 0.15
        assert counts == (2, 0, 0)  # every delayed frame counted, none lost

    def test_a_late_submit_the_breaker_refuses_is_an_abandoned_frame(self):
        # ``send`` said "accepted" when the delay began; the circuit
        # opened meanwhile.  The frame must be counted somewhere.
        async def scenario():
            transport, received = await make_pair(
                resilience=ResilienceConfig(breaker_reset_timeout=30.0),
                fault_plane=slow_links(0.05),
            )
            accepted = transport.send(1, 2, Ping(1), reliable=True)
            breaker = transport._channels[2].breaker
            for _ in range(FAILURE_THRESHOLD):
                breaker.record_failure()
            await asyncio.sleep(0.12)
            counts = (transport.frames_abandoned, transport.sends_refused)
            inbox = list(received[2])
            await transport.close()
            return accepted, breaker.state, counts, inbox

        accepted, state, counts, inbox = asyncio.run(scenario())
        assert accepted is True and state == STATE_OPEN
        assert counts == (1, 0)
        assert inbox == []

    def test_a_late_submit_does_nothing_for_a_crashed_source_or_a_closing_transport(self):
        async def scenario():
            transport, received = await make_pair((1, 2, 3), fault_plane=slow_links(0.05))
            assert transport.send(1, 2, Ping(1), reliable=True) is True
            transport.crash_node(1)
            await asyncio.sleep(0.12)
            after_crash = (list(received[2]), len(transport._channels[2].queue))
            assert transport.send(3, 2, Ping(2), reliable=True) is True
            await transport.close()
            await asyncio.sleep(0.12)
            after_close = (list(received[2]), len(transport._channels[2].queue))
            return after_crash, after_close, transport.frames_abandoned

        assert asyncio.run(scenario()) == (([], 0), ([], 0), 0)


class TestCrashRecovery:
    def test_a_frame_queued_for_a_node_that_crashes_before_the_drain_is_dropped(self):
        async def scenario():
            transport, received = await make_pair()
            transport._ingest(2, 1, Ping(1))  # queued; the drain has not run yet
            transport._ingest(1, 2, Ping(2))
            transport.crash_node(2)
            delivered = await settle(lambda: len(received[1]) == 1)
            inboxes = (list(received[1]), list(received[2]))
            await transport.close()
            return delivered, inboxes

        delivered, inboxes = asyncio.run(scenario())
        assert delivered
        assert inboxes == ([(2, Ping(2))], [])

    def test_breaker_opens_on_crash_and_recovers_on_restart(self):
        async def scenario():
            transport, received = await make_pair()
            transport.crash_node(2)

            # Fill the channel with doomed frames until the breaker opens.
            opened = False
            for i in range(20):
                transport.send(1, 2, Ping(i), reliable=True)
                await asyncio.sleep(0.02)
                channel = transport._channels.get(2)
                if channel is not None and channel.breaker.state == STATE_OPEN:
                    opened = True
                    break
            assert opened, "breaker never opened against a crashed peer"
            assert transport.frames_abandoned > 0
            assert transport.connect_failures > 0

            # While open, sends fast-fail without socket work.
            assert transport.send(1, 2, Ping(98), reliable=True) is False
            refused_while_open = transport.sends_refused

            await transport.restart_node(2)
            await asyncio.sleep(transport.resilience.breaker_reset_timeout + 0.05)

            # The next send is the half-open probe; it must deliver.
            assert transport.send(1, 2, Ping(99), reliable=True) is True
            ok = await settle(
                lambda: any(m.seq == 99 for _s, m in received[2])
            )
            counters = transport._channels[2].breaker.counters
            state = transport._channels[2].breaker.state
            await transport.close()
            return ok, counters, state, refused_while_open

        ok, counters, state, refused_while_open = asyncio.run(scenario())
        assert ok, "post-restart probe message was not delivered"
        assert counters.opens >= 1
        assert counters.half_open_probes >= 1
        assert counters.closes >= 1
        assert state == "closed"
        assert refused_while_open >= 1

    def test_a_crash_cancels_a_readiness_callback_queued_in_the_same_turn(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            transport = AsyncTransport(loop, NodeRegistry(), resilience=fast_resilience())
            readable, woken = transport._on_readable, []

            def on_readable(node_id, sock):
                woken.append(node_id)
                readable(node_id, sock)

            transport._on_readable = on_readable  # what _bind hands add_reader
            received = []
            await transport.open_endpoints(1, lambda _src, _message: None)
            await transport.open_endpoints(2, lambda src, message: received.append(message))
            # The datagrams sit in node 2's buffer before the loop's next
            # select, so that turn queues node 2's reader behind the crash.
            spray(transport.registry.udp_address(2), frames_from(1, 8))
            loop.call_soon(transport.crash_node, 2)
            await asyncio.sleep(0.05)
            before = (list(woken), list(received))
            await transport.restart_node(2)
            spray(transport.registry.udp_address(2), frames_from(1, 1))
            delivered = await settle(lambda: len(received) == 1)
            await transport.close()
            return before, delivered, woken

        before, delivered, woken = asyncio.run(scenario())
        assert before == ([], [])
        assert delivered
        assert woken == [2]

    def test_restart_after_expulsion_stays_down(self):
        async def scenario():
            transport, _received = await make_pair()
            transport.crash_node(2)
            transport.registry.expel(2)
            await transport.restart_node(2)
            crashed = 2 in transport._crashed
            await transport.close()
            return crashed

        assert asyncio.run(scenario()) is True

    def test_fallback_rebind_releases_the_ports_it_tried(self):
        # The old TCP port is taken while node 1 is down, so the restart
        # falls back to fresh ports: the UDP socket it had already bound
        # on the old port must be closed, not left reading as node 1.
        async def scenario():
            transport, received = await make_pair()
            old_udp = transport.registry.udp_address(1)
            old_tcp = transport.registry.tcp_address(1)
            transport.crash_node(1)
            await asyncio.sleep(0.01)  # the crash is over, however sockets are closed
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as squatter:
                squatter.bind(old_tcp)
                squatter.listen(1)
                await transport.restart_node(1)
            moved = (transport.registry.udp_address(1) != old_udp
                     and transport.registry.tcp_address(1) != old_tcp)
            try:
                with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                    probe.bind(old_udp)
                released = True
            except OSError:
                released = False
            # the node is back, on its new ports
            assert transport.send(2, 1, Ping(5), reliable=False)
            delivered = await settle(lambda: len(received[1]) == 1)
            await transport.close()
            return moved, released, delivered

        assert asyncio.run(scenario()) == (True, True, True)


class TestCancelledRun:
    def test_a_cancelled_run_releases_every_socket(self):
        # A timeout (here wait_for's) or Ctrl-C cancels run() inside its
        # sleep: the teardown must still close everything the run opened.
        cluster = RuntimeCluster(RuntimeConfig(loopback_config(6), duration=30.0))

        async def cancelled():
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(cluster.run(), timeout=1.0)

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            asyncio.run(cancelled())
            registry = cluster.deployment.host.registry
            del cluster
            gc.collect()  # a socket nobody closed warns as it is collected
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert len(registry.udp) == 7  # six nodes and the source
        for node_id, udp in registry.udp.items():
            with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
                probe.bind(udp)
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
                # past TIME_WAIT; only a listener still open refuses it
                probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                probe.bind(registry.tcp_address(node_id))
