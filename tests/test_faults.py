"""Tests for the scripted fault-injection plane (sim + schedule)."""

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlane, FaultSchedule


class Serve:
    pass


class Propose:
    pass


def plane_for(*events, seed=0):
    return FaultPlane(
        FaultSchedule(events=tuple(events)), rng=np.random.default_rng(seed)
    )


class TestFaultEventValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="meteor", at=0.0)

    def test_window_must_not_invert(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="drop", at=2.0, until=1.0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="drop", at=0.0, rate=1.5)

    def test_crash_needs_nodes(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="crash", at=0.0)

    def test_partition_needs_both_groups(self):
        with pytest.raises(ValueError):
            FaultEvent(kind="partition", at=0.0, group_a=(1,))

    def test_classes_must_name_wire_classes(self):
        # A typo would otherwise match nothing and inject no drop.
        with pytest.raises(ValueError, match="Srve"):
            FaultEvent(kind="drop", at=0.0, classes=("Srve",))

    def test_only_a_drop_takes_classes(self):
        # on_send does not read classes on a slow link; it would delay all.
        with pytest.raises(ValueError, match="only a drop"):
            FaultEvent(kind="slow", at=0.0, extra_delay=0.1, classes=("Serve",))

    def test_from_dicts_rejects_a_string_for_a_list(self):
        # "Serve" would otherwise become ('S', 'e', 'r', 'v', 'e').
        with pytest.raises(ValueError, match="classes is a string"):
            FaultSchedule.from_dicts([{"kind": "drop", "at": 0.0, "classes": "Serve"}])


class TestFaultSchedule:
    def test_from_dicts_sorts_and_tuples(self):
        schedule = FaultSchedule.from_dicts(
            [
                {"kind": "restart", "at": 2.0, "nodes": [3]},
                {"kind": "crash", "at": 1.0, "nodes": [3]},
                {"kind": "drop", "at": 0.5, "until": 1.5, "classes": ["Serve"]},
            ]
        )
        assert [e.at for e in schedule.events] == [0.5, 1.0, 2.0]
        assert schedule.events[0].classes == ("Serve",)
        assert schedule.events[1].nodes == (3,)

    def test_from_dicts_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown keys"):
            FaultSchedule.from_dicts([{"kind": "drop", "at": 0.0, "probability": 0.5}])

    def test_event_partitioning(self):
        schedule = FaultSchedule.from_dicts(
            [
                {"kind": "crash", "at": 1.0, "nodes": [0]},
                {"kind": "restart", "at": 2.0, "nodes": [0]},
                {"kind": "slow", "at": 0.0, "until": 3.0, "extra_delay": 0.1},
            ]
        )
        assert [e.kind for e in schedule.lifecycle_events()] == ["crash", "restart"]
        assert [e.kind for e in schedule.window_events()] == ["slow"]


class TestFaultPlaneOnSend:
    def test_symmetric_partition(self):
        plane = plane_for(
            FaultEvent(kind="partition", at=1.0, until=2.0, group_a=(0, 1), group_b=(2, 3))
        )
        assert plane.on_send(1.5, 0, 2, Serve()) == FaultPlane.DROP
        assert plane.on_send(1.5, 3, 1, Serve()) == FaultPlane.DROP  # reverse severed too
        assert plane.on_send(1.5, 0, 1, Serve()) == 0.0  # same side passes
        assert plane.on_send(0.5, 0, 2, Serve()) == 0.0  # before the window
        assert plane.on_send(2.0, 0, 2, Serve()) == 0.0  # window is half-open
        assert plane.counters()["partition_drops"] == 2

    def test_asymmetric_partition(self):
        plane = plane_for(
            FaultEvent(
                kind="partition", at=0.0, until=5.0,
                group_a=(0,), group_b=(1,), symmetric=False,
            )
        )
        assert plane.on_send(1.0, 0, 1, Serve()) == FaultPlane.DROP
        assert plane.on_send(1.0, 1, 0, Serve()) == 0.0  # b -> a still flows

    def test_class_targeted_drop(self):
        plane = plane_for(
            FaultEvent(kind="drop", at=0.0, until=10.0, classes=("Serve",), rate=1.0)
        )
        assert plane.on_send(1.0, 0, 1, Serve()) == FaultPlane.DROP
        assert plane.on_send(1.0, 0, 1, Propose()) == 0.0
        assert plane.counters()["targeted_drops"] == 1

    def test_endpoint_targeted_drop(self):
        plane = plane_for(
            FaultEvent(kind="drop", at=0.0, until=10.0, src_nodes=(5,), dst_nodes=(6,))
        )
        assert plane.on_send(1.0, 5, 6, Serve()) == FaultPlane.DROP
        assert plane.on_send(1.0, 5, 7, Serve()) == 0.0
        assert plane.on_send(1.0, 4, 6, Serve()) == 0.0

    def test_probabilistic_drop_is_seed_deterministic(self):
        def run(seed):
            plane = plane_for(
                FaultEvent(kind="drop", at=0.0, until=10.0, rate=0.3), seed=seed
            )
            return [plane.on_send(1.0, 0, 1, Serve()) for _ in range(200)]

        fates = run(7)
        assert fates == run(7)  # same stream, same fates
        dropped = fates.count(FaultPlane.DROP)
        assert 30 < dropped < 90  # ~60 expected at rate 0.3

    def test_slow_links_stack(self):
        plane = plane_for(
            FaultEvent(kind="slow", at=0.0, until=10.0, extra_delay=0.1),
            FaultEvent(kind="slow", at=0.0, until=10.0, extra_delay=0.05, src_nodes=(0,)),
        )
        assert plane.on_send(1.0, 0, 1, Serve()) == pytest.approx(0.15)
        assert plane.on_send(1.0, 2, 1, Serve()) == pytest.approx(0.1)
        assert plane.counters()["slowed_messages"] == 2

    def test_partition_checked_before_drops(self):
        plane = plane_for(
            FaultEvent(kind="partition", at=0.0, until=10.0, group_a=(0,), group_b=(1,)),
            FaultEvent(kind="drop", at=0.0, until=10.0, rate=1.0),
        )
        plane.on_send(1.0, 0, 1, Serve())
        counters = plane.counters()
        assert counters["partition_drops"] == 1
        assert counters["targeted_drops"] == 0

    def test_lifecycle_bookkeeping(self):
        plane = plane_for(FaultEvent(kind="crash", at=0.0, nodes=(3,)))
        plane.mark_crashed(3)
        assert plane.counters()["crashed_now"] == 1
        plane.mark_restarted(3)
        assert plane.counters()["crashed_now"] == 0


class TestSimClusterFaults:
    def schedule(self):
        return FaultSchedule.from_dicts(
            [
                {"kind": "drop", "at": 0.5, "until": 2.0, "rate": 0.3},
                {"kind": "crash", "at": 0.8, "nodes": [23]},
                {"kind": "restart", "at": 1.6, "nodes": [23]},
            ]
        )

    def test_crash_restart_map_to_leave_rejoin(self, small_cluster_factory):
        cluster = small_cluster_factory()
        plane = cluster.attach_faults(self.schedule())
        cluster.run(until=1.2)
        assert not cluster.membership.contains(23)  # crashed mid-window
        assert plane.counters()["crashed_now"] == 1
        cluster.run(until=2.5)
        assert cluster.membership.contains(23)  # restarted
        assert plane.counters()["crashed_now"] == 0
        assert plane.counters()["targeted_drops"] > 0

    def test_fault_drops_count_as_network_loss(self, small_cluster_factory):
        cluster = small_cluster_factory(loss_rate=0.0)
        plane = cluster.attach_faults(
            FaultSchedule.from_dicts([{"kind": "drop", "at": 0.0, "until": 3.0}])
        )
        cluster.run(until=1.0)
        drops = plane.counters()["targeted_drops"]
        assert drops > 0
        assert cluster.trace.lost_count() >= drops

    def test_churn_only_schedule_stays_off_the_send_path(self, small_cluster_factory):
        """Crash/restart instants are timers; with no drop, partition or
        slow window the plane has nothing to say about a send, so the
        network is not made to ask it."""
        cluster = small_cluster_factory()
        plane = cluster.attach_faults(FaultSchedule.churn([23], 2.5, downtime=0.8))
        assert cluster.network.fault_plane is None
        cluster.run(until=1.0)
        assert not cluster.membership.contains(23)  # crashed at 0.5
        assert plane.counters()["crashed_now"] == 1
        cluster.run(until=2.5)
        assert cluster.membership.contains(23)  # restarted at 1.3
        assert plane.counters()["crashed_now"] == 0

    def test_one_window_puts_the_plane_on_the_send_path(self, small_cluster_factory):
        cluster = small_cluster_factory()
        plane = cluster.attach_faults(
            FaultSchedule.from_dicts([{"kind": "drop", "at": 1.0, "until": 2.0, "rate": 0.1}])
        )
        assert cluster.network.fault_plane is plane

    def test_slow_window_adds_extra_delay_to_each_delivery(self, small_cluster_factory):
        """On an idle cluster's own network: a hand-sent message inside
        the window arrives ``extra_delay`` later than the latency model
        alone would deliver it, one outside the window does not."""

        class Probe:
            node_id = 24  # the first id the deployment does not use

            def __init__(self):
                self.arrivals = []

            def on_message(self, src, message):
                self.arrivals.append(cluster.sim.now)

        cluster = small_cluster_factory(loss_rate=0.0)  # never started: no traffic
        probe = Probe()
        cluster.network.register(probe)
        plane = cluster.attach_faults(
            FaultSchedule.from_dicts(
                [{"kind": "slow", "at": 1.0, "until": 2.0, "extra_delay": 0.5}]
            )
        )
        low, high = cluster.latency.low, cluster.latency.high
        for sent_at, extra in ((0.0, 0.0), (1.0, 0.5), (2.0, 0.0)):
            cluster.sim.run(until=sent_at)
            cluster.network.send(0, probe.node_id, Serve())
            cluster.sim.run(until=sent_at + 0.9)
            assert sent_at + extra + low <= probe.arrivals[-1] <= sent_at + extra + high
        assert len(probe.arrivals) == 3
        assert plane.counters()["slowed_messages"] == 1

    def test_delivery_slowed_past_an_outage_is_purged_at_the_restart(
        self, small_cluster_factory
    ):
        """What is in flight to a node when it crashes was addressed to
        the process that died.  A slow link can hold it past the whole
        outage; ``Network.reconnect`` drops it (counted as lost — with
        no loss model and no drop window nothing else is) instead of
        handing it to the restarted process."""
        cluster = small_cluster_factory(loss_rate=0.0)
        plane = cluster.attach_faults(
            FaultSchedule.from_dicts(
                [
                    {"kind": "slow", "at": 0.0, "until": 3.0, "dst_nodes": [23],
                     "extra_delay": 1.5},
                    {"kind": "crash", "at": 0.8, "nodes": [23]},
                    {"kind": "restart", "at": 1.6, "nodes": [23]},
                ]
            )
        )
        cluster.run(until=1.55)
        assert plane.counters()["slowed_messages"] > 0
        assert cluster.trace.lost_count() == 0
        cluster.run(until=1.65)
        purged = cluster.trace.lost_count()
        assert purged > 0
        cluster.run(until=3.0)
        assert cluster.trace.lost_count() == purged  # one purge, no other loss
        assert cluster.membership.contains(23)

    def test_faulted_run_is_deterministic(self, small_cluster_factory):
        def run_once():
            cluster = small_cluster_factory()
            plane = cluster.attach_faults(self.schedule())
            cluster.run(until=2.5)
            return plane.counters(), cluster.scores()

        first = run_once()
        second = run_once()
        assert first == second
