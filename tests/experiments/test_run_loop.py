"""What ``SimCluster.run`` promises about the clock and the cyclic collector.

``Simulator.run`` keeps automatic collection off while events fire.
That is free only while nothing a run allocates is cyclic, so the
condition is pinned here on four deployments that between them start
every kind of per-node state (verification windows, audits, expulsion,
SWIM suspicion, crash/restart): a full collection after the run must
find nothing.  The one cyclic structure is the deployment itself, and
it is reclaimed where its successor is built.
"""

import gc
import weakref

import pytest

from repro import adversary
from repro.membership.failure_detector import FailureDetectorParams
from repro.faults import FaultSchedule


def all_honest(factory):
    return factory()


def freeriders_expelled(factory):
    return factory(
        freerider_fraction=0.25,
        adversary=adversary.spec("freerider", degree=(0.3, 0.5, 0.5)),
        loss_rate=0.0,
        compensation=0.0,
        expulsion_enabled=True,
        eta=-4.0,
        min_periods_before_expel=4,
    )


def churn_under_swim(factory):
    cluster = factory(failure_detector=FailureDetectorParams())
    victims = sorted(cluster.honest_ids)[:3]
    cluster.attach_faults(FaultSchedule.churn(victims, 8.0, downtime=2.0))
    return cluster


def audited_coalition(factory):
    return factory(
        freerider_fraction=0.3,
        adversary=adversary.spec("coalition", degree=(0, 0, 0), launder=0.0, bias=0.9),
        p_audit=0.1,
        gamma=3.0,
    )


DEPLOYMENTS = (all_honest, freeriders_expelled, churn_under_swim, audited_coalition)


class TestARunLeavesNoCycles:
    @pytest.mark.parametrize("build", DEPLOYMENTS, ids=lambda build: build.__name__)
    def test_full_collection_after_a_run_finds_nothing(self, build, small_cluster_factory):
        cluster = build(small_cluster_factory)
        gc.collect()
        cluster.run(until=8.0)
        assert gc.collect() == 0
        # The run did what the deployment is for (the zero is not vacuous).
        assert cluster.sim.events_processed > 10_000
        if build is freeriders_expelled:
            assert cluster.controller.expelled_nodes()
        if build is churn_under_swim:
            summary = cluster.churn_summary()
            assert summary["crashes"] == 3 and summary["restarts"] == 3
        if build is audited_coalition:
            assert cluster.audit_results()


class TestClusterRun:
    def test_collection_is_off_inside_the_run_and_restored_after(
        self, small_cluster_factory, collector_on
    ):
        cluster = small_cluster_factory()
        seen = []
        cluster.sim.call_later(0.5, lambda: seen.append(gc.isenabled()))
        cluster.run(until=1.0)
        assert seen == [False]
        assert gc.isenabled()

    def test_until_in_the_past_does_not_rewind_the_clock(self, small_cluster_factory):
        cluster = small_cluster_factory()
        cluster.run(until=2.0)
        events = cluster.sim.events_processed
        cluster.run(until=1.0)
        assert cluster.sim.now == 2.0
        assert cluster.sim.events_processed == events


class TestABuildCollectsItsPredecessor:
    def test_a_dropped_cluster_is_dead_when_the_next_constructor_returns(
        self, small_cluster_factory, collector_on
    ):
        gc.disable()  # only the constructor's own collection may reclaim it
        first = small_cluster_factory()
        first.run(until=1.0)
        node = weakref.ref(first.nodes[0])
        del first
        assert node() is not None  # a deployment is cyclic: refcounts do not free it
        second = small_cluster_factory()
        assert node() is None
        assert second.nodes[0] is not None
