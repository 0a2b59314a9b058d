"""Transport-level tests: registry expulsion edge cases, the send
contract, datagram error surfacing, and the persistent reliable path."""

import asyncio

from repro.runtime.resilience import ResilienceConfig, RetryPolicy, STATE_OPEN
from repro.runtime.transport import AsyncTransport, NodeRegistry, _DatagramProtocol
from repro.wire import Ping as WirePing


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


class TestDatagramErrors:
    def test_error_received_is_surfaced(self):
        errors = []
        protocol = _DatagramProtocol(lambda data: None, errors.append)
        exc = OSError(111, "Connection refused")
        protocol.error_received(exc)
        assert errors == [exc]

    def test_transport_counts_datagram_errors(self):
        async def scenario():
            transport = AsyncTransport(asyncio.get_running_loop(), NodeRegistry())
            transport._on_datagram_error(1, OSError(111, "Connection refused"))
            transport._on_datagram_error(1, OSError(113, "No route to host"))
            return transport.datagram_errors

        assert asyncio.run(scenario()) == 2


def fast_resilience():
    """Aggressive timeouts so breaker transitions happen within a test."""
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        breaker_failure_threshold=2,
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
            for i in range(10):
                assert transport.send(1, 2, Ping(i), reliable=True)
            ok = await settle(lambda: len(received[2]) == 10)
            channels = len(transport._channels)
            counters = transport._channels[2].breaker.counters
            await transport.close()
            return ok, received[2], channels, counters

        ok, inbox, channels, counters = asyncio.run(scenario())
        assert ok
        assert [m.seq for _src, m in inbox] == list(range(10))
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


class TestCrashRecovery:
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
