"""Tests for chunking and the stream source."""

import pytest

from repro.config import GossipParams
from repro.gossip.chunks import SOURCE_ID, Chunk, ChunkStore, StreamSource
from repro.membership.full import FullMembership
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.wire import Serve


class TestChunkStore:
    def test_add_and_lookup(self):
        store = ChunkStore()
        assert store.add(1, size=100, received_at=2.0)
        assert 1 in store
        assert store.sizes[1] == 100
        assert store.received_at(1) == 2.0

    def test_duplicate_rejected(self):
        store = ChunkStore()
        store.add(1, 100, 2.0)
        assert not store.add(1, 100, 3.0)
        assert store.received_at(1) == 2.0  # first reception wins

    def test_len_and_ids(self):
        store = ChunkStore()
        for i in range(5):
            store.add(i, 10, float(i))
        assert len(store) == 5
        assert sorted(store.owned) == list(range(5))

    def test_chunk_validates_size(self):
        with pytest.raises(ValueError):
            Chunk(chunk_id=0, created_at=0.0, size=0)


class Sink:
    def __init__(self, node_id):
        self.node_id = node_id
        self.serves = []

    def on_message(self, src, message):
        self.serves.append((src, message))


class TestStreamSource:
    def _build(self, rng, n=10, rate=674.0, chunk=4096):
        sim = Simulator()
        network = Network(sim)
        params = GossipParams(
            n=n, fanout=3, stream_rate_kbps=rate, chunk_size=chunk, source_fanout=3
        )
        membership = FullMembership(rng, range(n))
        sinks = {i: Sink(i) for i in range(n)}
        for sink in sinks.values():
            network.register(sink)
        source = StreamSource(sim, network, membership, params)
        network.register(source)
        return sim, source, sinks, params

    def test_emission_rate(self, rng):
        sim, source, _sinks, params = self._build(rng)
        source.start(first_at=0.0)
        sim.run(until=10.0)
        expected = 10.0 / params.chunk_interval
        assert source.emitted == pytest.approx(expected, abs=2)

    def test_pushes_to_fanout_targets(self, rng):
        sim, source, sinks, _params = self._build(rng)
        source.start(first_at=0.0)
        sim.run(until=0.3)
        total = sum(len(s.serves) for s in sinks.values())
        assert total == source.emitted * 3 or total >= (source.emitted - 1) * 3

    def test_serves_carry_source_origin(self, rng):
        sim, source, sinks, _params = self._build(rng)
        source.start(first_at=0.0)
        sim.run(until=0.5)
        for sink in sinks.values():
            for src, msg in sink.serves:
                assert isinstance(msg, Serve)
                assert src == SOURCE_ID
                assert msg.origin == SOURCE_ID

    def test_chunks_per_second_param(self):
        params = GossipParams(n=10, fanout=3, stream_rate_kbps=674.0, chunk_size=4096)
        assert params.chunk_interval == pytest.approx(4096 / (674.0 * 125))
