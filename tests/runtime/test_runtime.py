"""Integration tests for the asyncio runtime (real sockets)."""

import asyncio

import pytest

from repro import adversary
from repro.config import FreeriderDegree
from repro.gossip.chunks import SOURCE_ID, StreamSource
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import ColludingBehavior
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.runtime.transport import AsyncTransport, NodeRegistry


class TestNodeRegistry:
    def test_register_and_lookup(self):
        registry = NodeRegistry()
        registry.register(1, ("127.0.0.1", 1000), ("127.0.0.1", 2000))
        assert registry.is_connected(1)
        assert registry.udp_address(1) == ("127.0.0.1", 1000)
        assert registry.tcp_address(1) == ("127.0.0.1", 2000)

    def test_expel(self):
        registry = NodeRegistry()
        registry.register(1, ("127.0.0.1", 1000), ("127.0.0.1", 2000))
        registry.expel(1)
        assert not registry.is_connected(1)
        assert registry.udp_address(1) is None

    def test_unknown_node(self):
        registry = NodeRegistry()
        assert not registry.is_connected(5)
        assert registry.udp_address(5) is None


class TestLiveCluster:
    def test_honest_cluster_disseminates(self):
        config = RuntimeConfig(n=8, duration=3.0, loss_rate=0.0, seed=1)
        report = asyncio.run(RuntimeCluster(config).run())
        assert report.chunks_emitted > 20
        assert report.delivery_ratio > 0.85
        assert report.datagrams_sent > 0
        assert report.datagrams_dropped == 0

    def test_the_live_source_is_the_stream_source(self, monkeypatch):
        # The one StreamSource both planes run: every chunk it reports
        # went to at most source_fanout distinct nodes, at chunk_size bytes.
        pushes = {}
        send = AsyncTransport.send

        def recording(self, src, dst, message, reliable):
            if src == SOURCE_ID:
                pushes.setdefault(message.chunk_id, []).append((dst, message.payload_size))
            return send(self, src, dst, message, reliable)

        monkeypatch.setattr(AsyncTransport, "send", recording)
        cluster = RuntimeCluster(RuntimeConfig(n=6, duration=1.0, loss_rate=0.0, seed=6))
        report = asyncio.run(cluster.run())
        gossip = cluster.gossip
        assert isinstance(cluster.source, StreamSource)
        assert report.chunks_emitted == cluster.source.emitted > 0
        assert sorted(pushes) == list(range(report.chunks_emitted))
        for targets in pushes.values():
            dsts = [dst for dst, _size in targets]
            assert len(dsts) == len(set(dsts)) <= gossip.source_fanout
            assert {size for _dst, size in targets} == {gossip.chunk_size}

    def test_synthetic_loss_applied(self):
        config = RuntimeConfig(n=8, duration=2.0, loss_rate=0.1, seed=2)
        report = asyncio.run(RuntimeCluster(config).run())
        assert report.datagrams_dropped > 0
        drop_rate = report.datagrams_dropped / report.datagrams_sent
        assert drop_rate == pytest.approx(0.1, abs=0.05)

    def test_freeriders_scored_below_honest(self):
        config = RuntimeConfig(
            n=10,
            duration=4.0,
            loss_rate=0.0,
            seed=3,
            freerider_fraction=0.2,
            adversary=adversary.spec("freerider", degree=(0.25, 0.4, 0.4)),
        )
        report = asyncio.run(RuntimeCluster(config).run())
        honest = [s for n, s in report.scores.items() if n not in report.freerider_ids]
        freeriders = [s for n, s in report.scores.items() if n in report.freerider_ids]
        assert freeriders and honest
        assert sum(freeriders) / len(freeriders) < sum(honest) / len(honest)

    def test_scores_present_for_all_nodes(self):
        config = RuntimeConfig(n=8, duration=2.0, loss_rate=0.0, seed=4)
        report = asyncio.run(RuntimeCluster(config).run())
        assert len(report.scores) == 8

    def test_coalition_policy_runs_over_sockets(self):
        # Any registered policy arms the live plane through Deployment:
        # here the paper's colluders, with laundering and the MITM attack.
        config = RuntimeConfig(
            n=10,
            duration=2.0,
            loss_rate=0.0,
            seed=5,
            freerider_fraction=0.3,
            adversary=adversary.spec(
                "coalition",
                degree=(0.25, 0.4, 0.4),
                bias=0.5,
                launder=1.0,
                man_in_the_middle=True,
            ),
        )
        cluster = RuntimeCluster(config)
        report = asyncio.run(cluster.run())
        assert len(report.freerider_ids) == 3
        members = [cluster.nodes[n].behavior for n in report.freerider_ids]
        assert all(isinstance(b, ColludingBehavior) for b in members)
        assert len({id(b.coalition) for b in members}) == 1
        assert members[0].coalition.members == report.freerider_ids
        assert sum(b.credits_sent for b in members) > 0
        for node_id in set(cluster.nodes) - report.freerider_ids:
            assert type(cluster.nodes[node_id].behavior) is HonestBehavior
        assert report.invariants["checks"] >= 2
        assert report.invariants["violations"] == 0
        assert report.audit_ok is True
