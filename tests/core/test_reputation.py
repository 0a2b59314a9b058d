"""Tests for the manager-based reputation substrate (§5.1, §6.2)."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.wrongful_blames import expected_blame_honest
from repro.config import planetlab_params
from repro.core.reputation import (
    ManagerAssignment,
    ReputationManager,
    ScoreBoard,
    compensation_per_period,
)
from repro.gossip.protocol import GossipNode
from repro.nodes.behavior import HonestBehavior
from repro.wire import Blame
from repro.wire_codec import decode_frame, encode_frame


@pytest.fixture
def params():
    gossip, lifting = planetlab_params()
    return replace(gossip, n=20), replace(
        lifting, managers=4, min_periods_before_expel=5, expel_quorum=0.5
    )


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestManagerAssignment:
    def test_each_node_gets_m_managers(self):
        assignment = ManagerAssignment(range(30), managers=5, seed=1)
        for node in range(30):
            managers = assignment.managers_of(node)
            assert len(managers) == 5
            assert len(set(managers)) == 5

    def test_never_own_manager(self):
        assignment = ManagerAssignment(range(30), managers=5, seed=1)
        for node in range(30):
            assert node not in assignment.managers_of(node)

    def test_deterministic_from_seed(self):
        a = ManagerAssignment(range(30), 5, seed=9)
        b = ManagerAssignment(range(30), 5, seed=9)
        assert all(a.managers_of(n) == b.managers_of(n) for n in range(30))
        c = ManagerAssignment(range(30), 5, seed=10)
        assert any(a.managers_of(n) != c.managers_of(n) for n in range(30))

    def test_reverse_index(self):
        assignment = ManagerAssignment(range(20), 4, seed=2)
        for node in range(20):
            for manager in assignment.managers_of(node):
                assert node in assignment.managed_by(manager)
                assert assignment.is_manager_of(manager, node)

    def test_managers_clamped_to_population(self):
        assignment = ManagerAssignment(range(4), managers=10, seed=0)
        assert assignment.managers_per_node == 3

    def test_unknown_node_empty(self):
        assignment = ManagerAssignment(range(4), 2, seed=0)
        assert assignment.managers_of(99) == ()


class TestCompensation:
    def test_matches_closed_form(self, params):
        gossip, lifting = params
        expected = expected_blame_honest(
            gossip.fanout, gossip.request_size, lifting.p_reception, lifting.p_dcc
        )
        assert compensation_per_period(gossip, lifting) == pytest.approx(expected)

    def test_paper_value_at_analysis_params(self):
        from repro.config import analysis_params

        gossip, lifting = analysis_params()
        assert compensation_per_period(gossip, lifting) == pytest.approx(72.95, abs=0.01)


def make_manager(params, owner, clock, compensation=None):
    gossip, lifting = params
    assignment = ManagerAssignment(range(20), lifting.managers, seed=3)
    manager = ReputationManager(
        owner=owner,
        assignment=assignment,
        gossip=gossip,
        lifting=lifting,
        now=clock,
        compensation=compensation,
    )
    return manager, assignment


class TestScoring:
    def test_unmanaged_target_returns_none(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, owner=0, clock=clock)
        outsider = next(
            n for n in range(20) if not assignment.is_manager_of(0, n)
        )
        assert manager.normalized_score(outsider) is None

    def test_score_is_compensation_minus_rate(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock, compensation=10.0)
        target = assignment.managed_by(0)[0]
        clock.now = 5.0  # 10 periods at T_g = 0.5
        manager.on_blame(target, 40.0)
        assert manager.normalized_score(target) == pytest.approx(10.0 - 40.0 / 10.0)

    def test_honest_blame_rate_scores_zero(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock, compensation=16.0)
        target = assignment.managed_by(0)[0]
        clock.now = 10.0  # 20 periods
        manager.on_blame(target, 16.0 * 20)
        assert manager.normalized_score(target) == pytest.approx(0.0)

    def test_negative_blame_is_credit(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock, compensation=0.0)
        target = assignment.managed_by(0)[0]
        clock.now = 1.0
        manager.on_blame(target, 10.0)
        manager.on_blame(target, -10.0)
        assert manager.normalized_score(target) == pytest.approx(0.0)

    def test_blame_for_unmanaged_dropped(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock)
        outsider = next(n for n in range(20) if not assignment.is_manager_of(0, n))
        manager.on_blame(outsider, 100.0)  # silently ignored
        manager.on_blame_message(7, Blame(target=outsider, value=100.0))  # off the wire too
        assert manager.normalized_score(outsider) is None
        assert outsider not in manager.records


class _HandClock:
    """The transport facade a live node needs to take a delivered message."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def call_later(self, delay, fn, *args):
        return None

    def send(self, src, dst, message, reliable):
        return True


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteBlame:
    """A NaN or infinite blame is dropped and counted, never summed: one
    NaN in ``blame_total`` would keep its target's score off every
    threshold comparison, so no later blame could get it voted out."""

    def _setup(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock, compensation=0.0)
        return clock, manager, assignment.managed_by(0)[0]

    def test_control_a_finite_blame_gets_its_target_voted_out(self, params):
        clock, manager, target = self._setup(params)
        clock.now = 5.0
        manager.on_blame_message(3, Blame(target=target, value=1e9))
        assert manager.expulsion_candidates() == [target]
        assert manager.rejected_blames == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_sim_handler_drops_and_counts_it(self, params, value):
        clock, manager, target = self._setup(params)
        clock.now = 5.0
        manager.on_blame_message(3, Blame(target=target, value=value))
        manager.on_blame(target, value)  # the node's own batch path
        record = manager.records[target]
        assert (record.blame_total, record.blame_events) == (0.0, 0)
        assert manager.rejected_blames == 2
        manager.on_blame_message(3, Blame(target=target, value=1e9))
        assert manager.expulsion_candidates() == [target]

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_quarantine_drops_it_too(self, params, value):
        _clock, manager, target = self._setup(params)
        assert manager.quarantine_target(target)
        manager.on_blame_message(3, Blame(target=target, value=value))
        record = manager.records[target]
        assert (record.quarantined_total, record.quarantined_events) == (0.0, 0)
        assert manager.rejected_blames == 1

    def test_a_blame_about_an_unmanaged_node_is_not_counted(self, params):
        _clock, manager, _target = self._setup(params)
        outsider = next(n for n in range(20) if n not in manager.records)
        manager.on_blame_message(3, Blame(target=outsider, value=math.nan))
        assert manager.rejected_blames == 0

    def test_negative_blames_stay_legal(self, params):
        _clock, manager, target = self._setup(params)
        manager.on_blame_message(3, Blame(target=target, value=-4.5))
        assert manager.records[target].blame_total == -4.5
        assert manager.rejected_blames == 0

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_live_path_frame_to_dispatch(self, params, value):
        gossip, lifting = params
        assignment = ManagerAssignment(range(20), lifting.managers, seed=3)
        transport = _HandClock()
        node = GossipNode(
            0, transport, None, gossip, lifting, HonestBehavior(), assignment,
            rng=np.random.default_rng(0),
        )
        target = assignment.managed_by(0)[0]
        # The codec carries the value as-is (``!d`` admits NaN and ±inf).
        src, message = decode_frame(encode_frame(3, Blame(target=target, value=value)))
        assert (src, message.target) == (3, target)
        node.dispatch_table[message.__class__](src, message)
        assert node.manager.rejected_blames == 1
        assert node.manager.records[target].blame_events == 0
        transport.now = 5.0
        node.dispatch_table[Blame](3, Blame(target=target, value=1e9))
        assert node.manager.expulsion_candidates() == [target]


class TestExpulsionVoting:
    def _setup(self, params):
        clock = FakeClock()
        manager, assignment = make_manager(params, 0, clock, compensation=0.0)
        target = assignment.managed_by(0)[0]
        return clock, manager, assignment, target

    def test_no_vote_during_grace_period(self, params):
        clock, manager, _assignment, target = self._setup(params)
        clock.now = 1.0  # 2 periods < min_periods_before_expel=5
        manager.on_blame(target, 1000.0)
        assert manager.expulsion_candidates() == []

    def test_vote_after_grace_when_below_eta(self, params):
        clock, manager, _assignment, target = self._setup(params)
        clock.now = 5.0  # 10 periods
        manager.on_blame(target, 1000.0)  # score = -100 < -9.75
        assert manager.expulsion_candidates() == [target]

    def test_votes_only_once(self, params):
        clock, manager, _assignment, target = self._setup(params)
        clock.now = 5.0
        manager.on_blame(target, 1000.0)
        assert manager.expulsion_candidates() == [target]
        assert manager.expulsion_candidates() == []

    def test_quorum(self, params):
        clock, manager, _assignment, target = self._setup(params)
        # managers=4, quorum=0.5 -> 2 votes needed.
        assert manager.on_expel_vote(7, target) is False
        assert manager.on_expel_vote(8, target) is True
        # Further votes after expulsion don't re-trigger.
        assert manager.on_expel_vote(9, target) is False

    def test_duplicate_votes_not_counted(self, params):
        clock, manager, _assignment, target = self._setup(params)
        assert manager.on_expel_vote(7, target) is False
        assert manager.on_expel_vote(7, target) is False

    def test_mark_expelled_stops_candidates(self, params):
        clock, manager, _assignment, target = self._setup(params)
        clock.now = 5.0
        manager.on_blame(target, 1000.0)
        manager.mark_expelled(target)
        assert manager.expulsion_candidates() == []


_SWEEP_TARGET = st.integers(min_value=0, max_value=5)
_SWEEP_OPERATION = st.one_of(
    # At compensation 0 and eta = -9.75 a record falls below threshold at
    # B > 9.75 r: these magnitudes straddle it for the first ~30 periods.
    st.tuples(st.just("blame"), _SWEEP_TARGET, st.sampled_from([3.25, 45.5, 97.5, 300.0])),
    st.tuples(st.just("blame"), _SWEEP_TARGET, st.sampled_from([-300.0, -45.5, -3.25])),
    st.tuples(st.just("quarantine"), _SWEEP_TARGET),
    st.tuples(st.just("discard"), _SWEEP_TARGET),
    st.tuples(st.just("release"), _SWEEP_TARGET),
    st.tuples(st.just("vote"), _SWEEP_TARGET, st.integers(min_value=1, max_value=6)),
    st.tuples(st.just("expelled"), _SWEEP_TARGET),
    st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.0])),
)


class TestSweepContract:
    """``expulsion_candidates`` against the scalar definitions, over
    generated operation sequences: an un-suspended record re-exposes a
    below-threshold score, a credit lifts one above ``eta`` and later
    blame drops it back — and nobody is voted against twice."""

    @settings(max_examples=50, deadline=None)
    @given(operations=st.lists(_SWEEP_OPERATION, min_size=20, max_size=40))
    def test_candidates_are_exactly_the_scalar_definition(self, operations):
        gossip, lifting = planetlab_params()
        lifting = replace(lifting, min_periods_before_expel=5)
        # 7 nodes, 6 managers each: node 0 manages the six others.
        assignment = ManagerAssignment(range(7), managers=6, seed=3)
        clock = FakeClock()
        manager = ReputationManager(
            0, assignment, gossip, lifting, now=clock, compensation=0.0
        )
        targets = list(manager.records)
        assert len(targets) == 6
        voted = set()
        for name, *args in operations:
            if name == "advance":
                clock.now += args[0]
            elif name == "blame":
                manager.on_blame(targets[args[0]], args[1])
            elif name == "vote":
                manager.on_expel_vote(args[1], targets[args[0]])
            else:
                {
                    "quarantine": manager.quarantine_target,
                    "discard": manager.discard_quarantine,
                    "release": manager.release_quarantine,
                    "expelled": manager.mark_expelled,
                }[name](targets[args[0]])
            expected = [
                target
                for target, record in manager.records.items()
                if not (record.voted_expel or record.expelled or record.suspected)
                and manager.periods_elapsed() >= lifting.min_periods_before_expel
                and manager.normalized_score(target) < lifting.eta
            ]
            assert manager.expulsion_candidates() == expected
            assert voted.isdisjoint(expected)
            voted.update(expected)


class TestScoreBoard:
    def test_min_vote(self, params):
        gossip, lifting = params
        clock = FakeClock()
        assignment = ManagerAssignment(range(20), lifting.managers, seed=3)
        target = 5
        managers = {}
        for i, manager_id in enumerate(assignment.managers_of(target)):
            manager = ReputationManager(
                owner=manager_id,
                assignment=assignment,
                gossip=gossip,
                lifting=lifting,
                now=clock,
                compensation=0.0,
            )
            managers[manager_id] = manager
        clock.now = 1.0  # 2 periods
        # One manager received more blames (e.g. others' copies lost).
        blame_values = [2.0, 2.0, 8.0, 2.0]
        for value, manager in zip(blame_values, managers.values()):
            manager.on_blame(target, value)
        board = ScoreBoard(managers)
        assert board.score(target, assignment) == pytest.approx(-8.0 / 2.0)

    def test_missing_managers_skipped(self, params):
        gossip, lifting = params
        assignment = ManagerAssignment(range(20), lifting.managers, seed=3)
        board = ScoreBoard({})
        assert board.score(5, assignment) is None
        assert board.scores([5, 6], assignment) == {}

    def _population(self, params, clock, hosts=range(20)):
        gossip, lifting = params
        assignment = ManagerAssignment(range(20), lifting.managers, seed=3)
        managers = {
            owner: ReputationManager(
                owner=owner,
                assignment=assignment,
                gossip=gossip,
                lifting=lifting,
                now=clock,
            )
            for owner in hosts
        }
        return managers, assignment

    def test_vectorised_scores_bit_identical_to_scalar(self, params):
        """The numpy one-pass read must equal min-vote per node exactly."""
        clock = FakeClock()
        managers, assignment = self._population(params, clock)
        for i, manager in enumerate(managers.values()):
            for j, target in enumerate(assignment.managed_by(manager.owner)):
                manager.on_blame(target, 1.0 + 0.37 * ((i * 7 + j) % 11))
        clock.now = 1.7
        board = ScoreBoard(managers)
        vectorised = board.scores(range(20), assignment)
        scalar = {
            target: board.score(target, assignment)
            for target in range(20)
            if board.score(target, assignment) is not None
        }
        assert vectorised == scalar  # exact float equality, not approx

    def test_cached_layout_sees_new_blames_and_time(self, params):
        clock = FakeClock()
        managers, assignment = self._population(params, clock)
        board = ScoreBoard(managers)
        clock.now = 1.0
        first = board.scores(range(20), assignment)
        for manager in managers.values():
            for target in assignment.managed_by(manager.owner):
                manager.on_blame(target, 5.0)
        clock.now = 3.0
        second = board.scores(range(20), assignment)
        assert first != second
        scalar = {t: board.score(t, assignment) for t in range(20)}
        assert second == {t: v for t, v in scalar.items() if v is not None}

    def test_vectorised_scores_with_partial_manager_population(self, params):
        """Unreachable managers are skipped, exactly like the scalar path."""
        clock = FakeClock()
        managers, assignment = self._population(params, clock, hosts=range(0, 20, 2))
        clock.now = 2.0
        board = ScoreBoard(managers)
        vectorised = board.scores(range(20), assignment)
        scalar = {
            target: board.score(target, assignment)
            for target in range(20)
            if board.score(target, assignment) is not None
        }
        assert vectorised == scalar
        assert set(vectorised) == set(scalar)


class TestBatchedBlameApplication:
    """The per-period batch paths must match per-event application."""

    @staticmethod
    def _build(params, seed=3):
        gossip, lifting = params
        assignment = ManagerAssignment(range(gossip.n), lifting.managers, seed=seed)
        clock = FakeClock()
        managers = {
            node: ReputationManager(node, assignment, gossip, lifting, now=clock)
            for node in range(gossip.n)
        }
        return assignment, managers, clock

    def test_on_blame_batch_matches_per_event(self, params):
        assignment, managers, clock = self._build(params)
        clock.now = 40.0
        manager = managers[assignment.managers_of(5)[0]]
        twin = managers[assignment.managers_of(5)[1]]
        pairs = [(5, 3.0), (5, -1.5), (99, 7.0), (5, 0.25)]  # 99: not managed
        manager.on_blame_batch([t for t, _ in pairs], [v for _, v in pairs])
        for target, value in pairs:
            twin.on_blame(target, value)
        rec_a = manager.records[5]
        rec_b = twin.records[5]
        assert rec_a.blame_total == rec_b.blame_total  # bit-identical
        assert rec_a.blame_events == rec_b.blame_events

    def test_scoreboard_ingest_blames_routes_to_all_managers(self, params):
        gossip, lifting = params
        assignment, managers, clock = self._build(params)
        board = ScoreBoard(managers)
        reference = {
            node: ReputationManager(node, assignment, gossip, lifting, now=clock)
            for node in range(gossip.n)
        }
        targets = [4, 7, 4, 4, 7, 11]
        values = [2.0, 1.0, 0.5, -0.25, 3.0, 10.0]
        routed = board.ingest_blames(assignment, targets, values)
        assert routed == len(targets)
        for target, value in zip(targets, values):
            for manager_id in assignment.managers_of(target):
                reference[manager_id].on_blame(target, value)
        clock.now = 80.0
        scores = board.scores(list(range(gossip.n)), assignment)
        ref_board = ScoreBoard(reference)
        ref_scores = ref_board.scores(list(range(gossip.n)), assignment)
        for node in range(gossip.n):
            assert scores[node] == pytest.approx(ref_scores[node], abs=1e-12)
        # Blamed targets moved; untouched nodes sit at the compensation.
        assert scores[11] < scores[0]

    def test_ingest_blames_empty_and_mismatch(self, params):
        assignment, managers, _clock = self._build(params)
        board = ScoreBoard(managers)
        assert board.ingest_blames(assignment, [], []) == 0
        with pytest.raises(ValueError):
            board.ingest_blames(assignment, [1, 2], [1.0])
