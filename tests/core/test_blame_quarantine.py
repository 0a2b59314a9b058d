"""Blame quarantine under suspicion (churn-tolerant reputation).

While the failure detector suspects a node, its managers divert blames
into a quarantine buffer instead of the score; the buffer is dropped on
refutation and folded in on confirmed death.  These tests pin that
record-level state machine (the cluster-level wiring is covered by
``tests/experiments/test_churn.py``).
"""

from dataclasses import replace

import pytest

from repro.config import planetlab_params
from repro.core.reputation import ManagerAssignment, ReputationManager


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def manager():
    gossip, lifting = planetlab_params()
    gossip = replace(gossip, n=20)
    lifting = replace(lifting, managers=4, min_periods_before_expel=5, expel_quorum=0.5)
    assignment = ManagerAssignment(range(20), managers=4, seed=7)
    owner = 0
    # ``manager.now`` is the FakeClock: a test drives it through ``now.now``.
    return ReputationManager(owner, assignment, gossip, lifting, now=FakeClock())


def a_target(manager):
    """Some node this manager holds a record for."""
    return next(iter(manager.records))


class TestQuarantineLifecycle:
    def test_blames_divert_while_suspected(self, manager):
        target = a_target(manager)
        assert manager.quarantine_target(target)
        manager.on_blame(target, 5.0)
        manager.on_blame(target, 2.0)
        record = manager.records[target]
        assert record.blame_total == 0.0
        assert record.quarantined_total == 7.0
        assert record.quarantined_events == 2

    def test_quarantine_is_idempotent_and_scoped(self, manager):
        target = a_target(manager)
        assert manager.quarantine_target(target)
        assert not manager.quarantine_target(target)  # already suspected
        assert not manager.quarantine_target(9999)  # not managed here
        assert manager.quarantines_started == 1

    def test_discard_drops_held_blames(self, manager):
        target = a_target(manager)
        manager.quarantine_target(target)
        manager.on_blame(target, 9.0)
        assert manager.discard_quarantine(target)
        record = manager.records[target]
        assert record.blame_total == 0.0
        assert record.quarantined_total == 0.0
        assert not record.suspected
        assert manager.quarantines_discarded == 1
        # Post-refutation blames hit the score again.
        manager.on_blame(target, 1.0)
        assert record.blame_total == 1.0

    def test_release_folds_held_blames_into_score(self, manager):
        target = a_target(manager)
        manager.on_blame(target, 1.0)
        manager.quarantine_target(target)
        manager.on_blame(target, 9.0)
        assert manager.release_quarantine(target)
        record = manager.records[target]
        assert record.blame_total == 10.0
        assert record.blame_events == 2
        assert record.quarantined_total == 0.0
        assert manager.quarantines_released == 1

    def test_resolution_needs_open_quarantine(self, manager):
        target = a_target(manager)
        assert not manager.discard_quarantine(target)
        assert not manager.release_quarantine(target)

    def test_expelled_target_cannot_be_quarantined(self, manager):
        target = a_target(manager)
        manager.mark_expelled(target)
        assert not manager.quarantine_target(target)


class TestVotingInteraction:
    def test_suspects_are_skipped_by_expulsion_sweep(self, manager):
        target = a_target(manager)
        # Pile on enough blame that the compensated score is far below η.
        manager.on_blame(target, 1e6)
        manager.now.now = 100.0  # past the grace period
        manager.quarantine_target(target)
        assert target not in manager.expulsion_candidates()
        # Released blames make it votable again.
        manager.release_quarantine(target)
        assert target in manager.expulsion_candidates()

    def test_released_blames_count_toward_score(self, manager):
        target = a_target(manager)
        manager.now.now = 10.0
        baseline = manager.normalized_score(target)
        manager.quarantine_target(target)
        manager.on_blame(target, 50.0)
        assert manager.normalized_score(target) == baseline  # held back
        manager.release_quarantine(target)
        assert manager.normalized_score(target) < baseline


class TestAuditTrail:
    def test_quarantine_events_are_chained(self, manager):
        entries = []

        class Log:
            def append(self, kind, **fields):
                entries.append(kind)

        manager.audit_log = Log()
        target = a_target(manager)
        manager.quarantine_target(target)
        manager.discard_quarantine(target)
        manager.quarantine_target(target)
        manager.on_blame(target, 3.0)
        manager.release_quarantine(target)
        assert entries == [
            "blame_quarantine",
            "quarantine_discard",
            "blame_quarantine",
            "quarantine_release",
        ]
