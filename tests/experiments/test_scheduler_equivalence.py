"""Heap-vs-calendar scheduler equivalence and large-n determinism pins.

PR 4 replaced per-message binary-heap delivery scheduling with the
calendar-queue :class:`~repro.sim.engine.DeliveryTimeline` plus batched
(coalesced) dispatch.  The contract is *exact* equivalence: the same
seed must produce the same event firing order — and therefore the same
traces, scores and RNG streams — under either scheduler.  These tests
pin that at deployment scale; ``tests/sim/test_timeline.py`` pins the
engine-level mechanics.
"""

import hashlib
from collections import Counter

import pytest

from repro.experiments.cluster import SimCluster
from repro.experiments.scaling import scaling_config
from repro.wire import Blame, Propose, Serve


def trace_fingerprint(cluster) -> str:
    """A stable hash of everything the message plane observably did.

    Integer counters only (no float formatting), so the value is
    machine-independent for a deterministic run.
    """
    trace = cluster.trace
    sent = sorted(
        (cls.__name__, src, entry[0], entry[1])
        for cls, per in trace._sent.items()
        for src, entry in per.items()
    )
    delivered = sorted((cls.__name__, n) for cls, n in trace._delivered.items())
    lost = sorted((cls.__name__, n) for cls, n in trace._lost.items())
    blob = repr(
        (cluster.sim.events_processed, cluster.sim._sequence, sent, delivered, lost)
    ).encode()
    return hashlib.sha256(blob).hexdigest()


class TestClusterSchedulerEquivalence:
    def test_timeline_matches_heap_bit_for_bit(self, small_cluster_factory):
        """Full deployment A/B: both schedulers, same seed, same world."""
        runs = {}
        for timeline in (True, False):
            cluster = small_cluster_factory(
                freerider_fraction=0.25,
                loss_rate=0.03,
                delivery_timeline=timeline,
            )
            cluster.run(until=8.0)
            runs[timeline] = (
                trace_fingerprint(cluster),
                cluster.sim.events_processed,
                sorted(cluster.scores().items()),
            )
        assert runs[True] == runs[False]
        assert runs[True][1] > 10_000  # the scenario produced real load

    def test_timeline_is_actually_in_use(self, small_cluster_factory):
        cluster = small_cluster_factory()
        assert cluster.network._timeline is cluster.sim.timeline
        assert cluster.sim.timeline is not None
        heap_only = small_cluster_factory(delivery_timeline=False)
        assert heap_only.network._timeline is None
        assert heap_only.sim.timeline is None


class TestBatchDispatch:
    def test_batch_runs_fire_in_a_real_deployment(self, small_cluster_factory):
        """Same-destination runs must actually reach the batch tables."""
        cluster = small_cluster_factory(loss_rate=0.02)
        assert cluster.network._batch_runs  # width fits under min latency
        counts = Counter()
        receivers = cluster.network._receivers
        for node_id, (endpoint, dispatch, batch) in receivers.items():
            if batch is None:
                continue

            def wrap(cls, handler):
                def counting(entries, lo, hi, _cls=cls, _handler=handler):
                    counts[_cls.__name__] += hi - lo
                    _handler(entries, lo, hi)

                return counting

            receivers[node_id] = (
                endpoint,
                dispatch,
                {cls: wrap(cls, handler) for cls, handler in batch.items()},
            )
        cluster.run(until=10.0)
        assert sum(counts.values()) > 0, "no delivery run was ever coalesced"

    def test_serve_batch_equals_per_message(self, small_cluster_factory):
        a = small_cluster_factory()
        b = small_cluster_factory()
        a.run(until=0.5)  # let the source mint some chunks (identically)
        b.run(until=0.5)
        node_a, node_b = a.nodes[3], b.nodes[3]
        serves = [
            Serve(proposal_id=7, chunk_id=k, payload_size=512, origin=5)
            for k in range(6)
        ]
        entries = [[0.6 + 0.001 * k, k, 5, 3, serves[k]] for k in range(6)]
        node_a.batch_dispatch_table[Serve](entries, 0, len(entries))
        for e in entries:
            b.sim.now = e[0]
            node_b.dispatch_table[Serve](e[2], e[4])
        assert a.sim.now == b.sim.now
        assert node_a.store.chunk_ids() == node_b.store.chunk_ids()
        assert [node_a.store.received_at(c) for c in node_a.store.chunk_ids()] == [
            node_b.store.received_at(c) for c in node_b.store.chunk_ids()
        ]
        assert node_a.stats.chunks_received == node_b.stats.chunks_received

    def test_blame_batch_equals_per_message(self, small_cluster_factory):
        a = small_cluster_factory()
        b = small_cluster_factory()
        node_a, node_b = a.nodes[1], b.nodes[1]
        targets = node_a.manager.assignment.managed_by(1)
        assert targets, "node 1 manages nobody in this seed — pick another node"
        blames = [Blame(target=targets[k % len(targets)], value=0.5 + k, reason="t") for k in range(5)]
        entries = [[0.2, k, 9, 1, blames[k]] for k in range(5)]
        node_a.manager.on_blame_entries(entries, 0, len(entries))
        for e in entries:
            node_b.manager.on_blame_message(e[2], e[4])
        for target in targets:
            ra = node_a.manager.records[target]
            rb = node_b.manager.records[target]
            assert ra.blame_total == rb.blame_total
            assert ra.blame_events == rb.blame_events

    def test_on_message_batch_equals_per_message(self, small_cluster_factory):
        """The generic batch entry point: mixed-type span, same effects."""
        a = small_cluster_factory()
        b = small_cluster_factory()
        a.run(until=0.5)
        b.run(until=0.5)
        node_a, node_b = a.nodes[2], b.nodes[2]
        messages = [
            Propose(proposal_id=11, chunk_ids=(1, 2)),
            Propose(proposal_id=12, chunk_ids=(2, 3)),
            Serve(proposal_id=11, chunk_id=1, payload_size=256, origin=4),
        ]
        entries = [[0.6 + 0.001 * k, k, 4, 2, m] for k, m in enumerate(messages)]
        node_a.on_message_batch(entries, 0, len(entries))
        for e in entries:
            b.sim.now = e[0]
            node_b.on_message(e[2], e[4])
        assert node_a.stats.proposals_received == node_b.stats.proposals_received
        assert node_a.stats.chunks_received == node_b.stats.chunks_received
        assert node_a._pending_chunks == node_b._pending_chunks
        assert a.sim._sequence == b.sim._sequence  # identical request fan-out


class TestCluster1000Golden:
    """Satellite: the large-n determinism pin for the new scheduler.

    A short fixed-seed window of the 1000-node deployment, hashed.  An
    *intentional* protocol change should update the constants (and say
    so in its changelog entry); anything else moving this hash has
    silently perturbed event ordering or RNG streams at large n.
    """

    GOLDEN_SHA256 = "e221731370e3457cc6fe4a8ca3ebb70ef9543ddc68567bcdb40f8e0c2a3c9265"
    GOLDEN_EVENTS = 176062

    def test_cluster1000_fixed_seed_trace_hash(self):
        cluster = SimCluster(scaling_config(1000, seed=1))
        cluster.run(until=2.5)
        assert cluster.sim.events_processed == self.GOLDEN_EVENTS
        assert trace_fingerprint(cluster) == self.GOLDEN_SHA256


class TestEventSpine:
    def test_heap_holds_only_period_ticks_once_warm(self, small_cluster_factory):
        """Machine-independent witness that the never-cancelled timers
        (witness-answer delays, confirm and serve timeouts) ride the
        calendar: in a warm all-honest deployment the heap is left with
        one period tick per node plus the source's — O(n), however many
        verification windows are open.  Before the spine the same run
        peaked at 580 heap entries for n=24."""
        cluster = small_cluster_factory(loss_rate=0.03)
        sim = cluster.sim
        n = cluster.config.gossip.n
        cluster.run(until=3.0)
        peak = 0
        open_windows = 0
        for step in range(1, 101):
            cluster.run(until=3.0 + 0.05 * step)
            peak = max(peak, sim.heap_size)
            open_windows = max(
                open_windows,
                sum(
                    node.engine.open_confirm_rounds + node.engine.open_request_windows
                    for node in cluster.nodes.values()
                ),
            )
        assert open_windows > 4 * n  # the timers exist; they are just not on the heap
        assert peak <= n + 4
