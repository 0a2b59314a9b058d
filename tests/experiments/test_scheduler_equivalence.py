"""Heap-vs-calendar scheduler equivalence and large-n determinism pins.

Network deliveries and every relative-delay timer ride the calendar-queue
:class:`~repro.sim.engine.DeliveryTimeline`; the binary heap keeps the
period ticks and the rare past-horizon entry.  The contract is
*exact* equivalence with the heap-only reference scheduler
(``Network(use_timeline=False)``): the same seed must produce the same
event firing order — and therefore the same traces, scores and RNG
streams — under either.  No deployment option selects the reference
scheduler, so the A/B here swaps it in at the ``Network`` constructor;
``tests/sim/test_timeline.py`` pins the engine-level mechanics.
"""

import hashlib
from functools import partial

import pytest

from repro import adversary
from repro.experiments import cluster as cluster_module
from repro.experiments.cluster import SimCluster
from repro.experiments.scaling import scaling_config
from repro.membership.failure_detector import FailureDetectorParams
from repro.faults import FaultSchedule
from repro.sim.network import Network


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


#: Every caller whose timers left the heap for the calendar, armed at
#: once: failure-detector probe timeouts, scripted crash / restart
#: instants, audit deadlines, score reads and the expulsion path.
EVERY_TIMER = dict(
    freerider_fraction=0.25,
    adversary=adversary.spec("freerider", degree=(0.25,) * 3),
    loss_rate=0.03,
    failure_detector=FailureDetectorParams(),
    p_audit=0.2,
    expulsion_enabled=True,
)


class TestClusterSchedulerEquivalence:
    @pytest.mark.parametrize(
        "overrides, churn",
        [(dict(freerider_fraction=0.25, loss_rate=0.03), False), (EVERY_TIMER, True)],
        ids=["freeriders", "every-timer-caller"],
    )
    def test_timeline_matches_heap_bit_for_bit(
        self, small_cluster_factory, monkeypatch, overrides, churn
    ):
        """Full deployment A/B: both schedulers, same seed, same world."""
        def build():
            cluster = small_cluster_factory(**overrides)
            if churn:
                honest = sorted(cluster.honest_ids)
                victims = honest[: len(honest) // 3]
                cluster.attach_faults(FaultSchedule.churn(victims, 8.0, downtime=1.5))
            return cluster

        clusters = {True: build()}
        monkeypatch.setattr(cluster_module, "Network", partial(Network, use_timeline=False))
        clusters[False] = build()
        runs = {}
        for timeline, cluster in clusters.items():
            assert (cluster.sim.timeline is not None) == timeline
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


class TestCluster1000Golden:
    """Satellite: the large-n determinism pin for the new scheduler.

    A short fixed-seed window of the 1000-node deployment, hashed.  An
    *intentional* protocol change should update the constants (and say
    so in its changelog entry); anything else moving this hash has
    silently perturbed event ordering or RNG streams at large n.
    """

    GOLDEN_SHA256 = "5a14f72e8812ac1d4f18afc28dac1d21936f4eef4f3f4ccb1ac3997c85315cc8"
    GOLDEN_EVENTS = 175290

    def test_cluster1000_fixed_seed_trace_hash(self):
        cluster = SimCluster(scaling_config(1000, seed=1))
        cluster.run(until=2.5)
        assert cluster.sim.events_processed == self.GOLDEN_EVENTS
        assert trace_fingerprint(cluster) == self.GOLDEN_SHA256


class TestEventSpine:
    @pytest.mark.parametrize(
        "overrides",
        [dict(), dict(failure_detector=FailureDetectorParams())],
        ids=["plain", "failure-detector"],
    )
    def test_heap_holds_only_period_ticks_once_warm(self, small_cluster_factory, overrides):
        """Machine-independent witness that relative-delay timers
        (witness-answer delays, confirm and serve timeouts, the failure
        detector's probe timeouts) ride the calendar: in a warm
        all-honest deployment the heap is left with one period tick per
        node plus the source's (n + 1 = 25 measured, both inputs) — O(n),
        however many verification windows and probes are open.  Before
        the spine the plain run peaked at 580 heap entries for n=24;
        while probe timeouts were heap timers the failure-detector run
        peaked at 40.  Open timers are counted as confirm rounds plus
        distinct request windows (a window asking for k chunks holds
        one timer): the peak reads 221 plain, 226 with the detector
        (65 / 66 of them request windows), against 4n = 96."""
        cluster = small_cluster_factory(loss_rate=0.03, **overrides)
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
                    node.engine.open_confirm_rounds
                    + len({id(window) for window in node._awaited.values()})
                    for node in cluster.nodes.values()
                ),
            )
        assert open_windows > 4 * n  # the timers exist; they are just not on the heap
        assert peak <= n + 4
