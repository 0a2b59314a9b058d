"""Tests for chunking and the stream source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GossipParams
from repro.gossip.chunks import (
    NOT_OWNED,
    PAGE_BITS,
    SOURCE_ID,
    Chunk,
    ChunkStore,
    StreamSource,
)
from repro.membership.full import FullMembership
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.wire import Serve


class TestChunkStore:
    def test_add_and_lookup(self):
        store = ChunkStore()
        assert store.add(1, size=100, received_at=2.0)
        assert 1 in store
        assert store.size_of(1) == 100
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
        assert sorted(store) == list(range(5))

    def test_chunk_validates_size(self):
        with pytest.raises(ValueError):
            Chunk(chunk_id=0, created_at=0.0, size=0)

    def test_the_free_slot_marker_is_no_reception_time(self):
        store = ChunkStore()
        with pytest.raises(ValueError, match="clock reading"):
            store.add(1, 100, NOT_OWNED)
        assert 1 not in store and len(store) == 0 and store.pages == {}
        assert len(store.times) == len(store.payload_sizes) == 0

    def test_a_size_outside_int64_takes_no_slot(self):
        store = ChunkStore()
        with pytest.raises(OverflowError):
            store.add(1, 2**63, 0.0)
        assert 1 not in store and len(store) == 0
        assert store.add(1, 2**63 - 1, 0.0) and store.size_of(1) == 2**63 - 1

    def test_unowned_lookups_raise_key_error(self):
        store = ChunkStore()
        store.add(1, 100, 2.0)
        for chunk_id in (0, 2, 64, -1):
            with pytest.raises(KeyError):
                store.received_at(chunk_id)
            with pytest.raises(KeyError):
                store.size_of(chunk_id)

    def test_far_ids_cost_one_page_each(self):
        """A flood of distinct ids, each in a page of its own, opens one
        page per id and no more: the cost of a hostile id is bounded."""
        store = ChunkStore()
        far = [(k << 20) * (-1) ** k for k in range(1, 200)] + [-(2**63), 2**63 - 1]
        for count, chunk_id in enumerate(far, start=1):
            assert store.add(chunk_id, 1, 0.0)
            assert len(store.pages) == count
        for chunk_id in far:
            assert not store.add(chunk_id, 1, 1.0)
        assert len(store.pages) == len(store) == len(far)
        slots = len(far) << PAGE_BITS
        assert len(store.times) == len(store.payload_sizes) == slots


#: the ids a stream, a loadgen offset and a hostile sender name, with
#: neighbours in the same page and the pages either side.
EDGE_IDS = [-1, -2, -(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 0, 63, 64]
IDS = st.one_of(
    st.sampled_from(EDGE_IDS),
    st.integers(0, 200).map(lambda k: (1 << 20) + k),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-130, 130),
)
OPS = st.one_of(
    st.tuples(
        st.just("add"),
        IDS,
        st.integers(-(2**63), 2**63 - 1),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.just("query"), IDS),
)


class TestChunkStoreModel:
    """The paged store answers every question a plain dict would."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(OPS, max_size=80))
    def test_answers_what_a_dict_answers(self, ops):
        store = ChunkStore()
        model = {}
        for op in ops:
            chunk_id = op[1]
            if op[0] == "add":
                _, _, size, at = op
                fresh = chunk_id not in model
                assert store.add(chunk_id, size, at) == fresh
                if fresh:
                    model[chunk_id] = (at, size)
            assert (chunk_id in store) == (chunk_id in model)
            if chunk_id in model:
                assert store.received_at(chunk_id) == model[chunk_id][0]
                assert store.size_of(chunk_id) == model[chunk_id][1]
            assert len(store) == len(model)
        assert sorted(store) == sorted(model)
        probe = list(model) + EDGE_IDS
        assert store.arrivals(probe) == [
            model[c][0] if c in model else NOT_OWNED for c in probe
        ]


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
