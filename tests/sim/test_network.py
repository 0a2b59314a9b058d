"""Tests for the simulated network fabric and message tracing."""

from dataclasses import dataclass

import pytest

from repro.sim.bandwidth import UploadLink
from repro.sim.engine import Simulator
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.sim.loss import BernoulliLoss, NoLoss, PerNodeLoss
from repro.sim.network import Network, Transport
from repro.sim.trace import CATEGORY_DATA, CATEGORY_VERIFICATION


#: What the network charges for a class outside the wire.
DEFAULT_SIZE = 64


@dataclass(frozen=True)
class DataMsg:
    CATEGORY = CATEGORY_DATA
    payload: int = 0


@dataclass(frozen=True)
class VerifMsg:
    CATEGORY = CATEGORY_VERIFICATION


#: Destinations a Byzantine sender may name (e.g. in ``Ack.partners``):
#: unregistered, wrapping into the table, out of range, not an id at all.
HOSTILE_DESTINATIONS = (99, -2, -5, 2**40, 1.5, "x", None)


class Recorder:
    def __init__(self, node_id):
        self.node_id = node_id
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, latency=ConstantLatency(0.05), loss=NoLoss())
    nodes = {i: Recorder(i) for i in range(3)}
    for node in nodes.values():
        network.register(node)
    return sim, network, nodes


class TestDelivery:
    def test_udp_delivers_after_latency(self, net):
        sim, network, nodes = net
        network.send(0, 1, DataMsg(7))
        sim.run()
        assert nodes[1].received == [(0, DataMsg(7))]
        assert sim.now == pytest.approx(0.05)

    def test_tcp_latency_factor(self, net):
        sim, network, nodes = net
        network.send(0, 1, DataMsg(), Transport.TCP)
        sim.run()
        assert sim.now == pytest.approx(0.10)
        assert len(nodes[1].received) == 1

    def test_unknown_destination_is_dropped(self, net):
        sim, network, nodes = net
        for dst in HOSTILE_DESTINATIONS:
            assert network.send(0, dst, DataMsg()) is False
        assert network.send_many(0, HOSTILE_DESTINATIONS + (1,), DataMsg(4)) == 1
        sim.run()
        assert sim.events_processed == 1
        assert [node.received for node in nodes.values()] == [[], [(0, DataMsg(4))], []]

    def test_unknown_sender_raises(self, net):
        _sim, network, _nodes = net
        with pytest.raises(ValueError):
            network.send(99, 0, DataMsg())

    def test_duplicate_registration_rejected(self, net):
        _sim, network, _nodes = net
        with pytest.raises(ValueError):
            network.register(Recorder(0))

    @pytest.mark.parametrize("bad_id", ["x", 1.5, None, -7, -2, 2**20])
    def test_invalid_node_id_rejected_and_network_untouched(self, net, bad_id):
        sim, network, nodes = net
        before = (dict(network._endpoints), dict(network._links), list(network._receivers))
        with pytest.raises(ValueError, match="node id"):
            network.register(Recorder(bad_id))
        assert (dict(network._endpoints), dict(network._links), list(network._receivers)) == before
        late = Recorder(3)
        network.register(late)
        assert network.send(0, 3, DataMsg(5)) is True
        sim.run()
        assert late.received == [(0, DataMsg(5))]

    def test_numpy_and_source_ids_register_as_plain_ints(self, net):
        import numpy as np

        sim, network, nodes = net
        source, late = Recorder(-1), Recorder(np.int64(7))
        network.register(source)
        network.register(late)
        assert all(type(node_id) is int for node_id in network._endpoints)
        network.send(-1, 7, DataMsg(1))
        network.send(7, -1, DataMsg(2))
        sim.run()
        assert late.received == [(-1, DataMsg(1))]
        assert source.received == [(7, DataMsg(2))]


class TestLoss:
    def test_udp_subject_to_loss(self, rng):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.01), loss=BernoulliLoss(rng, 1.0))
        a, b = Recorder(0), Recorder(1)
        network.register(a)
        network.register(b)
        network.send(0, 1, DataMsg())
        sim.run()
        assert b.received == []
        assert network.trace.lost_count() == 1

    def test_tcp_bypasses_loss(self, rng):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.01), loss=BernoulliLoss(rng, 1.0))
        a, b = Recorder(0), Recorder(1)
        network.register(a)
        network.register(b)
        network.send(0, 1, DataMsg(), Transport.TCP)
        sim.run()
        assert len(b.received) == 1


class TestExpulsion:
    def test_disconnected_cannot_send(self, net):
        sim, network, nodes = net
        network.disconnect(0)
        assert network.send(0, 1, DataMsg()) is False
        sim.run()
        assert nodes[1].received == []

    def test_disconnected_cannot_receive(self, net):
        sim, network, nodes = net
        network.disconnect(1)
        network.send(0, 1, DataMsg())
        sim.run()
        assert nodes[1].received == []

    def test_in_flight_traffic_discarded_on_expulsion(self, net):
        sim, network, nodes = net
        network.send(0, 1, DataMsg())
        network.disconnect(1)  # before delivery
        sim.run()
        assert nodes[1].received == []

    def test_reconnect(self, net):
        sim, network, nodes = net
        network.disconnect(1)
        network.reconnect(1)
        network.send(0, 1, DataMsg())
        sim.run()
        assert len(nodes[1].received) == 1

    def test_is_connected(self, net):
        _sim, network, _nodes = net
        assert network.is_connected(0)
        network.disconnect(0)
        assert not network.is_connected(0)


class TestReconnectPurge:
    """Messages in flight across an outage die with the old process:
    reconnect purges them (accounted as lost) so a delivery delayed past
    the whole downtime cannot reach the restarted node."""

    @pytest.mark.parametrize("use_timeline", [True, False])
    def test_in_flight_message_purged_on_reconnect(self, use_timeline):
        sim = Simulator()
        network = Network(
            sim, latency=ConstantLatency(0.5), loss=NoLoss(), use_timeline=use_timeline
        )
        nodes = {i: Recorder(i) for i in range(2)}
        for node in nodes.values():
            network.register(node)
        network.send(0, 1, DataMsg(7))  # would deliver at t=0.5
        network.disconnect(1)  # crash with the datagram in flight
        network.reconnect(1)  # restart before the delivery instant
        sim.run()
        assert nodes[1].received == []
        assert network.trace.lost_count("DataMsg") == 1
        # The fabric works normally afterwards.
        network.send(0, 1, DataMsg(8))
        sim.run()
        assert nodes[1].received == [(0, DataMsg(8))]

    @pytest.mark.parametrize("use_timeline", [True, False])
    def test_purge_only_hits_the_reconnecting_node(self, use_timeline):
        sim = Simulator()
        network = Network(
            sim, latency=ConstantLatency(0.5), loss=NoLoss(), use_timeline=use_timeline
        )
        nodes = {i: Recorder(i) for i in range(3)}
        for node in nodes.values():
            network.register(node)
        network.send(0, 1, DataMsg(1))
        network.send(0, 2, DataMsg(2))
        network.disconnect(1)
        network.reconnect(1)
        sim.run()
        assert nodes[1].received == []
        assert nodes[2].received == [(0, DataMsg(2))]


class TestBandwidthIntegration:
    def test_upload_rate_delays_delivery(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.0))
        a, b = Recorder(0), Recorder(1)
        network.register(a, upload_rate=float(DEFAULT_SIZE))  # 64 B/s
        network.register(b)
        network.send(0, 1, DataMsg())  # 64 bytes -> 1 s serialisation
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_capped_fan_out_serialises_as_the_link_does(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.25))
        nodes = [Recorder(i) for i in range(4)]
        network.register(nodes[0], upload_rate=48.0)
        for node in nodes[1:]:
            network.register(node)
        sim.run(until=0.5)
        reference = UploadLink(48.0)
        reference.free_at = 0.75  # still busy when the fan-out starts
        network.link(0).free_at = 0.75
        assert network.send_many(0, (1, 2, 3), DataMsg()) == 3
        departures = [reference.transmit(0.5, DEFAULT_SIZE) for _ in range(3)]
        for delivered, departure in enumerate(departures):
            sim.run(until=departure + 0.25 - 1e-9)
            assert sum(len(node.received) for node in nodes) == delivered
            sim.run(until=departure + 0.25)
            assert nodes[1 + delivered].received == [(0, DataMsg())]
        # Idle again: the next send starts now, not when the link freed.
        network.send(0, 1, DataMsg())
        reference.transmit(sim.now, DEFAULT_SIZE)
        link = network.link(0)
        assert (link.free_at, link.bytes_sent) == (reference.free_at, reference.bytes_sent)

    def test_capped_link_rejects_a_negative_size_before_sending(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.0))
        network.register(Recorder(0), upload_rate=1000.0)
        network.register(Recorder(1))
        network._size_cache[DataMsg] = lambda message: -1  # a broken sizer
        with pytest.raises(ValueError, match="size_bytes must be >= 0"):
            network.send_many(0, (1,), DataMsg())
        assert (network.link(0).bytes_sent, network.trace.sent_count()) == (0, 0)


class TestTrace:
    def test_bytes_by_category(self, net):
        sim, network, _nodes = net
        network.send(0, 1, DataMsg())
        network.send(0, 1, VerifMsg())
        network.send(0, 2, VerifMsg())
        sim.run()
        trace = network.trace
        assert trace.category_bytes(CATEGORY_DATA) == DEFAULT_SIZE
        assert trace.category_bytes(CATEGORY_VERIFICATION) == 2 * DEFAULT_SIZE

    def test_counts_by_kind(self, net):
        sim, network, _nodes = net
        network.send(0, 1, DataMsg())
        network.send(0, 1, DataMsg())
        sim.run()
        assert network.trace.sent_count("DataMsg") == 2
        assert network.trace.delivered_count("DataMsg") == 2

    def test_loss_rate(self, rng):
        sim = Simulator()
        network = Network(sim, loss=BernoulliLoss(rng, 0.5))
        a, b = Recorder(0), Recorder(1)
        network.register(a)
        network.register(b)
        for _ in range(2000):
            network.send(0, 1, DataMsg())
        assert network.trace.lost_count("DataMsg") / 2000 == pytest.approx(0.5, abs=0.05)

    def test_default_wire_size_fallback(self, net):
        sim, network, _nodes = net

        class Bare:
            pass

        class SelfSized:
            def wire_size(self) -> int:  # not a wire kind: never asked
                return 11

        network.send(0, 1, Bare())
        network.send(0, 1, SelfSized())
        assert network.trace.sent_bytes("Bare") == DEFAULT_SIZE
        assert network.trace.sent_bytes("SelfSized") == DEFAULT_SIZE


class TestForeignClassOnANode:
    """A protocol node's dispatch table holds every wire class: a class
    outside the wire misses it, and the drain drops the message."""

    def test_a_non_wire_message_is_delivered_and_dropped(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        cluster.run(until=1.0)
        assert DataMsg not in cluster.nodes[1].dispatch_table
        assert cluster.network.send(0, 1, DataMsg(7)) is True
        cluster.run(until=2.0)  # raises if the drain does not drop it
        assert cluster.trace.delivered_count("DataMsg") == 1


class TestDisconnectedDestinationShortCircuit:
    """Sends to expelled/unknown destinations must not charge the
    sender's upload link or the byte trace (Table 5 accounting)."""

    def test_no_bandwidth_charged_for_disconnected_destination(self):
        sim = Simulator()
        network = Network(sim, latency=ConstantLatency(0.05))
        a, b = Recorder(0), Recorder(1)
        network.register(a, upload_rate=1000.0)
        network.register(b)
        network.disconnect(1)
        assert network.send(0, 1, DataMsg()) is False
        assert network.link(0).bytes_sent == 0
        assert network.link(0).free_at == 0.0
        assert network.trace.sent_count() == 0

    def test_no_bandwidth_charged_for_unknown_destination(self):
        import numpy as np

        sim = Simulator()
        loss_rng, latency_rng = np.random.default_rng(3), np.random.default_rng(4)
        network = Network(
            sim,
            latency=UniformLatency(latency_rng, 0.01, 0.05),
            loss=PerNodeLoss(loss_rng, base=0.5),
        )
        network.register(Recorder(0), upload_rate=1000.0)
        rng_states = (loss_rng.bit_generator.state, latency_rng.bit_generator.state)
        for dst in HOSTILE_DESTINATIONS:
            assert network.send(0, dst, DataMsg()) is False
        assert network.send_many(0, HOSTILE_DESTINATIONS, DataMsg()) == 0
        assert network.link(0).bytes_sent == 0
        assert network.trace.sent_count() == 0 and network.trace.lost_count() == 0
        assert sim.pending_events == 0
        # Neither model drew (the first draw would refill its block).
        assert (loss_rng.bit_generator.state, latency_rng.bit_generator.state) == rng_states

    def test_no_rng_consumed_for_disconnected_destination(self, rng):
        import numpy as np

        sim = Simulator()
        network = Network(
            sim,
            latency=ConstantLatency(0.01),
            loss=BernoulliLoss(np.random.default_rng(3), 0.5),
        )
        a, b, c = Recorder(0), Recorder(1), Recorder(2)
        for node in (a, b, c):
            network.register(node)
        network.disconnect(1)
        # a blocked send must not advance the loss model's draw stream:
        # the next real send sees the same decisions as a fresh model.
        for _ in range(50):
            network.send(0, 1, DataMsg())
        reference = BernoulliLoss(np.random.default_rng(3), 0.5)
        decisions = [network.loss.is_lost(0, 2) for _ in range(100)]
        expected = [reference.is_lost(0, 2) for _ in range(100)]
        assert decisions == expected


class TestWireSizeTypeCache:
    def test_payload_independent_kinds_are_cached_as_ints(self, net):
        from repro.wire import MODEL_SIZES, WIRE_MESSAGE_CLASSES, Blame, Propose, Serve

        _sim, network, _nodes = net
        assert network._size_cache == MODEL_SIZES
        assert set(MODEL_SIZES) == set(WIRE_MESSAGE_CLASSES)
        assert type(MODEL_SIZES[Blame]) is int
        assert type(MODEL_SIZES[Propose]) is not int and type(MODEL_SIZES[Serve]) is not int

    def test_real_message_sizes_accounted(self, net):
        from repro.wire import Blame, Propose

        sim, network, _nodes = net
        blame = Blame(target=3, value=1.0)
        network.send(0, 1, blame)
        network.send(0, 1, blame)
        network.send(0, 1, Propose(proposal_id=1, chunk_ids=(1, 2)))
        network.send_many(0, (1, 2), Propose(proposal_id=2, chunk_ids=()))
        assert network.trace.sent_bytes("Blame") == 2 * (28 + 1 + 6 + 4)
        assert network.trace.sent_bytes("Propose") == (28 + 1 + 4 + 2 * 4) + 2 * (28 + 1 + 4)


class TestInlineModelFastPaths:
    """The send path inlines PerNodeLoss / UniformLatency verbatim for
    the exact stock types; subclasses take the model-call fallback.
    Both paths must consume the identical RNG draw stream."""

    @staticmethod
    def _run(loss_cls, latency_cls):
        import numpy as np

        from repro.sim.latency import UniformLatency
        from repro.sim.loss import PerNodeLoss

        sim = Simulator()
        network = Network(
            sim,
            latency=latency_cls(np.random.default_rng(5), 0.01, 0.08),
            loss=loss_cls(np.random.default_rng(6), base=0.2, node_loss={1: 0.1}),
        )
        arrivals = []

        class TimestampingRecorder(Recorder):
            def on_message(self, src, message):
                arrivals.append(round(sim.now, 12))
                super().on_message(src, message)

        a, b = TimestampingRecorder(0), TimestampingRecorder(1)
        network.register(a)
        network.register(b)
        message = DataMsg()
        for i in range(200):
            if i % 3 == 0:
                network.send_many(0, (1, 1), message)
            else:
                network.send(0, 1, message)
        sim.run()
        return arrivals, network.trace.lost_count(), network.trace.sent_count()

    def test_subclassed_models_reproduce_inline_stream(self):
        from repro.sim.latency import UniformLatency
        from repro.sim.loss import PerNodeLoss

        class WrappedLoss(PerNodeLoss):
            pass

        class WrappedLatency(UniformLatency):
            pass

        inline = self._run(PerNodeLoss, UniformLatency)
        fallback = self._run(WrappedLoss, WrappedLatency)
        assert inline == fallback

    def test_invalid_latency_delay_raises_instead_of_rewinding_clock(self):
        class BrokenLatency(ConstantLatency):
            def sample(self, src, dst):
                return -1.0

        sim = Simulator()
        network = Network(sim, latency=BrokenLatency())
        network.register(Recorder(0))
        network.register(Recorder(1))
        sim.now = 5.0
        with pytest.raises(ValueError):
            network.send(0, 1, DataMsg())

    def test_nan_latency_delay_raises(self):
        class NaNLatency(ConstantLatency):
            def sample(self, src, dst):
                return float("nan")

        sim = Simulator()
        network = Network(sim, latency=NaNLatency())
        network.register(Recorder(0))
        network.register(Recorder(1))
        with pytest.raises(ValueError):
            network.send(0, 1, DataMsg())
