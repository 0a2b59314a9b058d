"""Ingress fuzzing: hostile bytes against the live transport.

The wire-hardening contract: no byte sequence a peer can send — random
garbage, truncated frames, oversized length prefixes, valid headers with
corrupt bodies — may escape the ingress paths as an exception.  Every
rejection is counted, attributable garbage walks the claimed peer's
circuit breaker open, and the deployment keeps delivering valid traffic
throughout.
"""

import asyncio
import socket
import struct

import numpy as np

from repro import wire_codec
from repro.runtime.resilience import ResilienceConfig, RetryPolicy, STATE_OPEN
from repro.runtime.transport import AsyncTransport, NodeRegistry
from repro.wire import Ping


def fast_resilience():
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=1, base_delay=0.01, jitter=0.0),
        breaker_reset_timeout=0.1,
    )


async def make_pair(node_ids=(1, 2)):
    registry = NodeRegistry()
    transport = AsyncTransport(
        asyncio.get_running_loop(), registry, resilience=fast_resilience()
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
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        if asyncio.get_running_loop().time() >= deadline:
            return False
        await asyncio.sleep(interval)
    return True


def valid_ping(seq=0):
    return Ping(seq=seq, incarnation=0, updates=())


class TestUdpIngressFuzz:
    def test_random_garbage_is_counted_and_survivable(self):
        async def scenario():
            transport, received = await make_pair()
            addr = transport.registry.udp_address(2)
            rng = np.random.default_rng(99)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            attempts = 60
            try:
                for _ in range(attempts):
                    length = int(rng.integers(0, 200))
                    sock.sendto(rng.bytes(length), addr)
            finally:
                sock.close()
            # All garbage is rejected at the decode boundary...
            ok = await settle(lambda: transport.decode_errors >= attempts - 5)
            # ...and the pump still delivers valid traffic afterwards.
            assert transport.send(1, 2, valid_ping(7), reliable=False)
            delivered = await settle(lambda: len(received[2]) == 1)
            errors = transport.decode_errors
            snapshot = transport.resilience_snapshot()["decode_errors"]
            await transport.close()
            return ok, delivered, errors, snapshot, received[2]

        ok, delivered, errors, snapshot, inbox = asyncio.run(scenario())
        assert ok, "decode errors were not counted"
        assert delivered, "valid traffic no longer delivered after fuzzing"
        assert inbox == [(1, valid_ping(7))]
        assert snapshot["total"] == errors > 0

    def test_attributed_garbage_opens_the_peer_breaker(self):
        async def scenario():
            transport, received = await make_pair(node_ids=(1, 2, 3))
            addr = transport.registry.udp_address(2)
            # A frame with a *valid* header claiming src=3 (a registered
            # peer) and a corrupt body: attributable garbage.
            good = wire_codec.encode_frame(3, valid_ping(1))
            bad = good[: wire_codec._HEADER_LEN] + b"\xff\xff\xff"
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for _ in range(4):
                    sock.sendto(bad, addr)
            finally:
                sock.close()
            opened = await settle(
                lambda: transport.decode_errors_by_peer.get(3, 0) >= 2
                and transport._channels.get(3) is not None
                and transport._channels[3].breaker.state == STATE_OPEN
            )
            by_peer = dict(transport.decode_errors_by_peer)
            snapshot = transport.resilience_snapshot()["decode_errors"]
            await transport.close()
            return opened, by_peer, snapshot

        opened, by_peer, snapshot = asyncio.run(scenario())
        assert opened, "breaker did not open against the babbling peer"
        assert by_peer[3] >= 2
        assert snapshot["by_peer"]["3"] == by_peer[3]

    def test_spoofed_ids_create_no_per_peer_state(self):
        # The header's id is a free 64-bit field of an unauthenticated
        # frame: only ids the registry knows may own a counter and a
        # channel, whatever a sender claims.
        claims, chunk = 2000, 100

        async def scenario():
            transport, received = await make_pair()
            addr = transport.registry.udp_address(2)
            tag = wire_codec.tag_of(Ping)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for start in range(0, claims, chunk):  # paced: no kernel overflow
                    for claimed in range(start, start + chunk):
                        # valid tag, never-registered id, truncated body
                        sock.sendto(struct.pack("!Bq", tag, 10**6 + claimed) + b"\x00", addr)
                    await settle(lambda: transport.decode_errors >= start + chunk)
            finally:
                sock.close()
            assert transport.send(1, 2, valid_ping(7), reliable=False)
            delivered = await settle(lambda: len(received[2]) == 1)
            tables = (len(transport._channels), len(transport.decode_errors_by_peer))
            snapshot = transport.resilience_snapshot()["decode_errors"]
            await transport.close()
            return delivered, tables, snapshot

        delivered, tables, snapshot = asyncio.run(scenario())
        assert delivered, "valid traffic no longer delivered after the spray"
        assert max(tables) <= 2  # never larger than the registry
        assert snapshot == {"total": claims, "unattributed": claims, "by_peer": {}}

    def test_headerless_garbage_is_unattributed(self):
        async def scenario():
            transport, _received = await make_pair()
            addr = transport.registry.udp_address(2)
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                sock.sendto(b"\xfe\x01", addr)  # unknown tag, no full header
            finally:
                sock.close()
            ok = await settle(lambda: transport.decode_errors_unattributed >= 1)
            await transport.close()
            return ok

        assert asyncio.run(scenario())


class TestTcpIngressFuzz:
    def test_framed_garbage_counted_and_stream_recovers_per_frame(self):
        async def scenario():
            transport, received = await make_pair()
            addr = transport.registry.tcp_address(2)
            reader, writer = await asyncio.open_connection(*addr)
            rng = np.random.default_rng(7)
            # Interleave garbage frames with one valid frame: decode
            # failures are per-frame, not per-connection.
            for i in range(5):
                payload = rng.bytes(20)
                writer.write(struct.pack("!I", len(payload)) + payload)
            valid = wire_codec.encode_frame(1, valid_ping(42))
            writer.write(struct.pack("!I", len(valid)) + valid)
            await writer.drain()
            ok = await settle(
                lambda: transport.decode_errors >= 5 and len(received[2]) == 1
            )
            writer.close()
            await transport.close()
            return ok, received[2]

        ok, inbox = asyncio.run(scenario())
        assert ok, "garbage not counted or valid frame not delivered"
        assert inbox == [(1, valid_ping(42))]

    def test_oversized_length_prefix_kills_the_connection(self):
        async def scenario():
            transport, _received = await make_pair()
            addr = transport.registry.tcp_address(2)
            reader, writer = await asyncio.open_connection(*addr)
            writer.write(struct.pack("!I", wire_codec.MAX_FRAME_BYTES + 1))
            await writer.drain()
            counted = await settle(lambda: transport.decode_errors >= 1)
            # The server must hang up: a hostile length prefix cannot be
            # resynchronised, so the stream dies before allocation.
            eof = await asyncio.wait_for(reader.read(1), timeout=2.0)
            writer.close()
            await transport.close()
            return counted, eof

        counted, eof = asyncio.run(scenario())
        assert counted
        assert eof == b""

    def test_truncated_stream_mid_frame_is_harmless(self):
        async def scenario():
            transport, received = await make_pair()
            addr = transport.registry.tcp_address(2)
            _reader, writer = await asyncio.open_connection(*addr)
            writer.write(struct.pack("!I", 64) + b"\x00" * 10)  # then vanish
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.1)
            # The deployment is unbothered: valid traffic still flows.
            assert transport.send(1, 2, valid_ping(5), reliable=True)
            ok = await settle(lambda: len(received[2]) == 1)
            await transport.close()
            return ok

        assert asyncio.run(scenario())
