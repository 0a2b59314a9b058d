"""Integration tests for the asyncio runtime (real sockets)."""

import asyncio
from dataclasses import replace

import pytest

from repro import adversary
from repro.config import FreeriderDegree, planetlab_params
from repro.deployment import ClusterConfig, loopback_config
from repro.experiments.cluster import SimCluster
from repro.faults import FaultEvent, FaultSchedule
from repro.gossip.chunks import SOURCE_ID, StreamSource
from repro.metrics.health import delivery_ratio
from repro.nodes.behavior import HonestBehavior
from repro.nodes.colluder import ColludingBehavior
from repro.runtime.cluster import RuntimeCluster, RuntimeConfig
from repro.runtime.transport import AsyncTransport, NodeRegistry
from repro.wire import AuditRequest


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
        config = RuntimeConfig(loopback_config(8, loss_rate=0.0, seed=1), duration=3.0)
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
        cluster = RuntimeCluster(
            RuntimeConfig(loopback_config(6, loss_rate=0.0, seed=6), duration=1.0)
        )
        report = asyncio.run(cluster.run())
        gossip = cluster.config.cluster.gossip
        assert isinstance(cluster.source, StreamSource)
        assert report.chunks_emitted == cluster.source.emitted > 0
        assert sorted(pushes) == list(range(report.chunks_emitted))
        for targets in pushes.values():
            dsts = [dst for dst, _size in targets]
            assert len(dsts) == len(set(dsts)) <= gossip.source_fanout
            assert {size for _dst, size in targets} == {gossip.chunk_size}

    def test_synthetic_loss_applied(self):
        config = RuntimeConfig(loopback_config(8, loss_rate=0.1, seed=2), duration=2.0)
        report = asyncio.run(RuntimeCluster(config).run())
        assert report.datagrams_dropped > 0
        drop_rate = report.datagrams_dropped / report.datagrams_sent
        assert drop_rate == pytest.approx(0.1, abs=0.05)

    def test_freeriders_scored_below_honest(self):
        cluster = loopback_config(
            10,
            loss_rate=0.0,
            seed=3,
            freerider_fraction=0.2,
            adversary=adversary.spec("freerider", degree=(0.25, 0.4, 0.4)),
        )
        live = RuntimeCluster(RuntimeConfig(cluster, duration=4.0))
        asyncio.run(live.run())
        scores, freerider_ids = live.deployment.scores(), live.deployment.freerider_ids
        honest = [s for n, s in scores.items() if n not in freerider_ids]
        freeriders = [s for n, s in scores.items() if n in freerider_ids]
        assert freeriders and honest
        assert sum(freeriders) / len(freeriders) < sum(honest) / len(honest)

    def test_scores_present_for_all_nodes(self):
        cluster = RuntimeCluster(
            RuntimeConfig(loopback_config(8, loss_rate=0.0, seed=4), duration=2.0)
        )
        asyncio.run(cluster.run())
        assert len(cluster.deployment.scores()) == 8

    def test_coalition_policy_runs_over_sockets(self):
        # Any registered policy arms the live plane through Deployment:
        # here the paper's colluders, with laundering and the MITM attack.
        deployment = loopback_config(
            10,
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
        cluster = RuntimeCluster(RuntimeConfig(deployment, duration=2.0))
        report = asyncio.run(cluster.run())
        freerider_ids = cluster.deployment.freerider_ids
        assert len(freerider_ids) == 3
        members = [cluster.nodes[n].behavior for n in freerider_ids]
        assert all(isinstance(b, ColludingBehavior) for b in members)
        assert len({id(b.coalition) for b in members}) == 1
        assert members[0].coalition.members == freerider_ids
        assert sum(b.credits_sent for b in members) > 0
        for node_id in set(cluster.nodes) - freerider_ids:
            assert type(cluster.nodes[node_id].behavior) is HonestBehavior
        swept = cluster.invariants.summary()
        assert swept["checks"] >= 2
        assert swept["violations"] == 0
        assert report.audit_ok is True


class TestTeardown:
    def test_no_invariant_sweep_outlives_the_run(self):
        # The sweeps ride the loop's call_every: once run() returns, more
        # loop time must not check again.
        cluster = RuntimeCluster(
            RuntimeConfig(loopback_config(4, loss_rate=0.0, seed=8), duration=1.0)
        )

        async def run_then_idle():
            await cluster.run()
            checks = cluster.invariants.summary()["checks"]
            await asyncio.sleep(4 * cluster.config.cluster.gossip.gossip_period)
            return checks

        checks = asyncio.run(run_then_idle())
        assert checks >= 2  # at least one periodic sweep and the final one
        assert cluster.invariants.summary()["checks"] == checks

    def test_a_script_that_crashes_every_node_sends_no_probe(self, monkeypatch):
        # The breaker probe needs a prober that never crashes; with every
        # node scripted to crash there is none, and the run still returns.
        probes = []
        send = AsyncTransport.send

        def recording(self, src, dst, message, reliable):
            if reliable and isinstance(message, AuditRequest):
                probes.append((src, dst))
            return send(self, src, dst, message, reliable)

        monkeypatch.setattr(AsyncTransport, "send", recording)
        schedule = FaultSchedule(events=(FaultEvent(kind="crash", at=0.3, nodes=(0, 1, 2, 3)),))
        config = RuntimeConfig(loopback_config(4, seed=9), duration=1.0, fault_schedule=schedule)
        report = asyncio.run(asyncio.wait_for(RuntimeCluster(config).run(), timeout=30.0))
        assert report.faults["crashed_now"] == 4
        assert probes == []


class TestOneConfigBothPlanes:
    def test_a_sim_config_runs_on_sockets(self):
        gossip, lifting = planetlab_params()
        config = ClusterConfig(
            gossip=replace(gossip, n=12),
            lifting=replace(lifting, managers=5),
            seed=2,
            lifting_enabled=False,
        )
        cluster = RuntimeCluster(RuntimeConfig(config, duration=1.5))
        report = asyncio.run(cluster.run())
        assert report.chunks_emitted > 0
        assert len(cluster.nodes) == 12
        for node in cluster.nodes.values():
            assert (node.gossip, node.lifting) == (config.gossip, config.lifting)
            assert node.engine is None and node.manager is None

    def test_the_live_config_runs_simulated(self):
        cluster = SimCluster(loopback_config(12, seed=1))
        cluster.run(until=2.0)
        emitted = cluster.source.emitted
        cluster.run(until=3.0)
        assert emitted > 30
        assert delivery_ratio(cluster.nodes.values(), range(emitted)) > 0.95

    @pytest.mark.parametrize(
        "field, value",
        [
            ("upload_rate", 1e6),
            ("degraded_fraction", 0.1),
            ("degraded_loss", 0.3),
            ("degraded_upload", 1e5),
        ],
    )
    def test_a_sim_only_field_is_refused_before_any_socket(self, monkeypatch, field, value):
        opened = []
        monkeypatch.setattr(AsyncTransport, "open_endpoints", lambda *args: opened.append(args))
        config = RuntimeConfig(loopback_config(6, **{field: value}), duration=0.5)
        with pytest.raises(ValueError, match=field):
            asyncio.run(RuntimeCluster(config).run())
        assert opened == []
