"""Unit tests for the verification engine (§5.2) against a fake host."""

from collections import deque
from dataclasses import dataclass, replace
from typing import Set

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.blames import (
    REASON_FANOUT_DECREASE,
    REASON_INVALID_PROPOSAL,
    REASON_NO_ACK,
    REASON_PARTIAL_SERVE,
    REASON_WITNESS_CONTRADICTION,
    fanout_decrease_blame,
)
from repro.core.verification import VerificationEngine
from repro.wire import UDP, Ack, Confirm, ConfirmResponse

from object_fields import fields_of


@pytest.fixture
def engine(fake_host):
    fake_host.forced_random = 0.0  # always trigger cross-checks
    return VerificationEngine(fake_host)


FANOUT = 4  # from the fake host's gossip params


def full_partners():
    return tuple(range(10, 10 + FANOUT))


def waiting(round_state):
    """The witnesses a confirm round still waits on."""
    return set(round_state.witnesses) - set(round_state.answered)


class TestAckHappyPath:
    def test_complete_ack_no_blame(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(5, 2)
        fake_host.sim.run(until=0.6)
        engine.on_ack(5, Ack(chunk_ids=(1, 2), partners=full_partners()))
        assert fake_host.blames == []

    def test_cross_check_sends_confirms_to_all_witnesses(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        confirms = [m for _d, m in fake_host.sent if isinstance(m, Confirm)]
        assert len(confirms) == FANOUT
        assert all(c.proposer == 5 for c in confirms)

    def test_all_valid_responses_no_blame(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        for witness in full_partners():
            engine.on_confirm_response(witness, ConfirmResponse(proposer=5, valid=True))
        fake_host.sim.run()  # fire the confirm timeout
        assert fake_host.blames == []


class TestAckViolations:
    def test_fanout_decrease_blamed_f_minus_fhat(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10, 11)))  # f̂=2 < f=4
        assert (5, 2.0, REASON_FANOUT_DECREASE) in fake_host.blames

    def test_missing_ack_blamed_f_after_timeout(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        fake_host.sim.run(until=fake_host.lifting.ack_timeout + 0.1)
        engine.on_period_tick()
        assert (5, float(FANOUT), REASON_NO_ACK) in fake_host.blames

    def test_no_double_blame_after_sweep(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        fake_host.sim.run(until=fake_host.lifting.ack_timeout + 0.1)
        engine.on_period_tick()
        engine.on_period_tick()
        no_acks = [b for b in fake_host.blames if b[2] == REASON_NO_ACK]
        assert len(no_acks) == 1

    def test_ack_omitting_overdue_chunks_is_invalid_proposal(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(5, 2)
        fake_host.sim.run(until=fake_host.gossip.gossip_period + 0.05)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        invalid = [b for b in fake_host.blames if b[2] == REASON_INVALID_PROPOSAL]
        assert len(invalid) == 1
        assert invalid[0][1] == float(FANOUT)

    def test_fresh_chunks_not_counted_invalid(self, engine, fake_host):
        # A chunk served moments before the ack may legitimately belong to
        # the next propose phase — no blame yet.
        engine.on_serve_sent(5, 1)
        fake_host.sim.run(until=0.1)
        engine.on_serve_sent(5, 2)  # just served
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert all(b[2] != REASON_INVALID_PROPOSAL for b in fake_host.blames)

    def test_contradicting_witnesses_blamed_one_each(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        witnesses = full_partners()
        engine.on_confirm_response(witnesses[0], ConfirmResponse(5, True))
        engine.on_confirm_response(witnesses[1], ConfirmResponse(5, False))
        # witnesses[2], witnesses[3] never answer.
        fake_host.sim.run()
        contradictions = [
            b for b in fake_host.blames if b[2] == REASON_WITNESS_CONTRADICTION
        ]
        assert contradictions == [(5, 3.0, REASON_WITNESS_CONTRADICTION)]

    def test_pdcc_zero_skips_cross_check(self, fake_host):
        fake_host.forced_random = 0.99  # above any p_dcc < 1
        from dataclasses import replace

        fake_host.lifting = replace(fake_host.lifting, p_dcc=0.0)
        engine = VerificationEngine(fake_host)
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert not any(isinstance(m, Confirm) for _d, m in fake_host.sent)

    def test_fanout_check_still_runs_without_cross_check(self, fake_host):
        from dataclasses import replace

        fake_host.forced_random = 0.99
        fake_host.lifting = replace(fake_host.lifting, p_dcc=0.0)
        engine = VerificationEngine(fake_host)
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10,)))
        assert (5, 3.0, REASON_FANOUT_DECREASE) in fake_host.blames


class TestAckFanoutIsDistinctPartners:
    """An ack's fan-out is the set of partners it names, less its sender:
    repeating a partner or listing itself buys a proposer nothing."""

    def _witnesses_asked(self, fake_host):
        return sorted(d for d, m in fake_host.sent if isinstance(m, Confirm))

    def test_a_repeated_partner_counts_once(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10, 10, 10, 10)))
        assert fake_host.blames == [(5, 3.0, REASON_FANOUT_DECREASE)]
        assert self._witnesses_asked(fake_host) == [10]
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        fake_host.sim.run()  # one witness asked, one valid answer
        assert fake_host.blames == [(5, 3.0, REASON_FANOUT_DECREASE)]

    def test_the_proposer_is_no_partner_of_its_own(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(5, 10, 11, 12)))
        assert fake_host.blames == [(5, 1.0, REASON_FANOUT_DECREASE)]
        assert self._witnesses_asked(fake_host) == [10, 11, 12]

    def test_a_self_only_list_opens_no_round_and_draws_nothing(self, fake_host):
        draws = []
        fake_host.random = lambda: draws.append(None) or 0.0
        engine = VerificationEngine(fake_host)
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(5, 5)))
        assert fake_host.blames == [(5, float(FANOUT), REASON_FANOUT_DECREASE)]
        assert draws == [] and engine.open_confirm_rounds == 0
        assert fake_host.sent == []


class TestBookkeeping:
    def test_counters(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        assert engine.pending_ack_count == 1
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert engine.pending_ack_count == 0
        assert engine.open_confirm_rounds == 1
        fake_host.sim.run()
        assert engine.open_confirm_rounds == 0

    def test_blames_by_reason_accumulates(self, engine, fake_host):
        engine.on_window_closed(7, requested=4, missing=1)
        engine.on_window_closed(7, requested=1, missing=1)
        assert engine.blames_by_reason[REASON_PARTIAL_SERVE] == FANOUT / 4 + FANOUT
        assert fake_host.blames == [
            (7, FANOUT / 4, REASON_PARTIAL_SERVE),
            (7, float(FANOUT), REASON_PARTIAL_SERVE),
        ]

    def test_partial_ack_keeps_exact_count(self, engine, fake_host):
        """Regression: a partial ack must not leave an empty per-requester
        entry behind (a requester is a key iff it has an outstanding
        serve — a stranded empty entry overcounts pending requesters)."""
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(5, 2)
        engine.on_serve_sent(8, 3)
        assert engine.pending_ack_count == 2
        # Ack only chunk 1 — requester 5 still owes chunk 2.
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert engine.pending_ack_count == 2
        # Ack the remainder: requester 5 must vanish entirely.
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=full_partners()))
        assert engine.pending_ack_count == 1
        assert 5 not in engine._pending_acks
        engine.on_ack(8, Ack(chunk_ids=(3,), partners=full_partners()))
        assert engine.pending_ack_count == 0
        assert engine._pending_acks == {}

    def test_overdue_drop_path_keeps_exact_count(self, engine, fake_host):
        """The overdue-chunk pop inside ``on_ack`` (invalid-proposal path)
        must release the requester the moment its last chunk drops."""
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(5, 2)
        fake_host.sim.run(until=fake_host.gossip.gossip_period + 0.05)
        # Ack names chunk 1 only; chunk 2 is overdue and dropped with blame.
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert engine.pending_ack_count == 0
        assert engine._pending_acks == {}

    def test_sweep_drop_path_keeps_exact_count(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(8, 2)
        fake_host.sim.run(until=fake_host.lifting.ack_timeout + 0.1)
        engine.on_period_tick()
        assert engine.pending_ack_count == 0
        assert engine._pending_acks == {}

    def test_duplicate_serve_refreshes_not_duplicates(self, engine, fake_host):
        engine.on_serve_sent(5, 1)
        fake_host.sim.run(until=0.2)
        engine.on_serve_sent(5, 1)  # retry chain looped back to us
        assert engine.pending_ack_count == 1
        assert engine._pending_acks == {5: {1: 0.2}}
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        assert engine.pending_ack_count == 0

    def test_purge_requester_drops_only_that_requester(self, engine):
        engine.on_serve_sent(5, 1)
        engine.on_serve_sent(8, 2)
        engine.on_serve_sent(5, 3)
        engine.purge_requester(5)
        assert engine.pending_ack_count == 1
        assert 5 not in engine._pending_acks and 8 in engine._pending_acks
        engine.purge_requester(99)  # absent requester is a no-op
        assert engine.pending_ack_count == 1

    def test_concurrent_confirm_rounds_same_proposer(self, engine, fake_host):
        # Two acks from the same proposer in flight: responses must be
        # matched FIFO per (proposer, witness).
        engine.on_serve_sent(5, 1)
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10, 11, 12, 13)))
        engine.on_serve_sent(5, 2)
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=(10, 11, 12, 13)))
        assert engine.open_confirm_rounds == 2
        for witness in (10, 11, 12, 13):
            engine.on_confirm_response(witness, ConfirmResponse(5, True))
            engine.on_confirm_response(witness, ConfirmResponse(5, True))
        fake_host.sim.run()
        assert fake_host.blames == []

    def test_late_response_credits_the_next_open_round(self, engine, fake_host):
        timeout = fake_host.lifting.confirm_timeout
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        fake_host.sim.run(until=timeout / 2)
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=full_partners()))
        # The first round times out unanswered: four contradictions.
        fake_host.sim.run(until=timeout + 0.01)
        assert fake_host.blames == [(5, 4.0, REASON_WITNESS_CONTRADICTION)]
        assert engine.open_confirm_rounds == 1
        # Answers meant for the dead round now land on the second one.
        for witness in full_partners():
            engine.on_confirm_response(witness, ConfirmResponse(5, True))
        fake_host.sim.run()
        assert fake_host.blames == [(5, 4.0, REASON_WITNESS_CONTRADICTION)]

    def test_duplicate_response_from_one_witness_ignored(self, engine, fake_host):
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        (round_state,) = engine._confirm_rounds[5]
        assert round_state.valid == 1 and waiting(round_state) == {11, 12, 13}
        assert round_state.asked == FANOUT
        fake_host.sim.run()
        assert fake_host.blames == [(5, 3.0, REASON_WITNESS_CONTRADICTION)]

    def test_unsolicited_responses_ignored(self, engine, fake_host):
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.on_confirm_response(99, ConfirmResponse(5, True))  # not a witness
        engine.on_confirm_response(10, ConfirmResponse(6, True))  # no round about 6
        (round_state,) = engine._confirm_rounds[5]
        assert round_state.valid == 0 and waiting(round_state) == set(full_partners())
        fake_host.sim.run()
        assert fake_host.blames == [(5, 4.0, REASON_WITNESS_CONTRADICTION)]

    def test_a_witness_of_two_rounds_credits_the_older_first(self, engine, fake_host):
        timeout = fake_host.lifting.confirm_timeout
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10, 11, 12, 13)))
        fake_host.sim.run(until=timeout / 2)
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=(10, 14, 15, 16)))
        older, newer = engine._confirm_rounds[5]
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        assert (waiting(older), waiting(newer)) == ({11, 12, 13}, {10, 14, 15, 16})
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        assert (waiting(older), waiting(newer)) == ({11, 12, 13}, {14, 15, 16})
        engine.on_confirm_response(11, ConfirmResponse(5, True))
        # Each round is tallied at its own timeout, the older first.
        fake_host.sim.run(until=timeout + 0.01)
        assert fake_host.blames == [(5, 2.0, REASON_WITNESS_CONTRADICTION)]
        (still_open,) = engine._confirm_rounds[5]
        assert still_open is newer
        fake_host.sim.run()
        assert fake_host.blames == [
            (5, 2.0, REASON_WITNESS_CONTRADICTION),
            (5, 3.0, REASON_WITNESS_CONTRADICTION),
        ]
        assert engine._confirm_rounds == {}

    def test_a_timer_from_before_a_reset_leaves_the_new_round_open(self, engine, fake_host):
        timeout = fake_host.lifting.confirm_timeout
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.on_ack(6, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.reset_transient()
        fake_host.sim.run(until=timeout / 2)
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=full_partners()))
        (fresh,) = engine._confirm_rounds[5]
        # The dropped rounds' timers fire first: the one about 5 finds
        # the fresh round at the head of its proposer's list and must not
        # close it; the one about 6 finds no list at all.
        fake_host.sim.run(until=timeout + 0.01)
        assert list(engine._confirm_rounds) == [5]
        (head,) = engine._confirm_rounds[5]
        assert head is fresh
        assert fake_host.blames == []
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        assert fresh.valid == 1
        fake_host.sim.run()
        assert fake_host.blames == [(5, 3.0, REASON_WITNESS_CONTRADICTION)]
        assert engine._confirm_rounds == {}

    def test_no_confirm_matching_state_outlives_its_rounds(self, engine, fake_host):
        # Witness 13 never answers, 12 answers only once: nothing may stay
        # queued on their behalf once both rounds have timed out.
        for chunk_id in (1, 2):
            engine.on_ack(5, Ack(chunk_ids=(chunk_id,), partners=full_partners()))
        for witness in (10, 11, 12, 10, 11):
            engine.on_confirm_response(witness, ConfirmResponse(5, True))
        fake_host.sim.run()
        leftovers = {
            name: value
            for name, value in fields_of(engine).items()
            if isinstance(value, (dict, set, list, deque)) and value
        }
        assert set(leftovers) == {"blames_by_reason"}  # the diagnostic


class TestOrderContracts:
    """Blame order reaches the managers' float sums, so the order the
    pending-ack dict is walked in is behaviour, not an accident."""

    def test_sweep_blames_in_first_serve_order(self, engine, fake_host):
        for requester in (9, 5, 7):
            engine.on_serve_sent(requester, 1)
        engine.on_serve_sent(9, 2)  # a second serve does not move 9
        fake_host.sim.run(until=fake_host.lifting.ack_timeout + 0.1)
        engine.on_period_tick()
        assert [t for t, _v, _r in fake_host.blames] == [9, 5, 7]

    def test_drained_requester_reenters_at_the_end(self, engine, fake_host):
        for requester in (9, 5, 7):
            engine.on_serve_sent(requester, 1)
        engine.on_ack(9, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.on_serve_sent(9, 2)
        fake_host.sim.run(until=fake_host.lifting.ack_timeout + 0.1)
        engine.on_period_tick()
        assert [t for t, _v, r in fake_host.blames if r == REASON_NO_ACK] == [5, 7, 9]


@dataclass(slots=True)
class _SetRound:
    proposer: int
    waiting: Set[int]
    asked: int
    valid: int = 0


class SetRoundEngine(VerificationEngine):
    """The confirm chain as it was with a ``set`` of waited-on witnesses
    per round: the reference the tuple rounds must match."""

    def on_ack(self, src, ack):
        host = self.host
        fanout = host.gossip.fanout
        witnesses = set(ack.partners)
        witnesses -= {src}
        reached = len(witnesses)
        if reached < fanout:
            value = fanout_decrease_blame(fanout, reached)
            if value > 0:
                host.send_blame(src, value, REASON_FANOUT_DECREASE)
        if witnesses and self._random() < host.lifting.p_dcc:
            round_state = _SetRound(src, witnesses, reached)
            self._confirm_rounds.setdefault(src, []).append(round_state)
            self._send_many(
                self._node_id, witnesses, Confirm(proposer=src, chunk_ids=ack.chunk_ids), UDP
            )
            self._call_later(host.lifting.confirm_timeout, self._finish_confirm_round, round_state)

    def on_confirm_response(self, src, response):
        for round_state in self._confirm_rounds.get(response.proposer, ()):
            if src in round_state.waiting:
                round_state.waiting -= {src}
                if response.valid:
                    round_state.valid += 1
                return

    def _finish_confirm_round(self, round_state):
        proposer = round_state.proposer
        rounds = self._confirm_rounds
        if proposer not in rounds or rounds[proposer][0] is not round_state:
            return
        del rounds[proposer][0]
        if not rounds[proposer]:
            del rounds[proposer]
        contradictions = round_state.asked - round_state.valid
        if contradictions > 0:
            self.host.send_blame(
                proposer, contradictions * self._contradiction_value, REASON_WITNESS_CONTRADICTION
            )


# Node ids 1..5: the two proposers are among the possible witnesses, so
# an ack can list its own sender, or the other proposer.
CONFIRM_IDS = st.integers(1, 5)
CONFIRM_STEPS = st.one_of(
    # an ack: partners duplicated, self-listed or absent
    st.tuples(st.just("ack"), st.integers(1, 2), st.lists(CONFIRM_IDS, max_size=7)),
    # a response, sent once or twice: duplicate, unsolicited (about
    # proposer 3, or from no witness) or, after a wait, late
    st.tuples(
        st.just("response"), CONFIRM_IDS, st.integers(1, 3), st.booleans(), st.integers(1, 2)
    ),
    # a wait, in tenths of the confirm timeout: two rounds about one
    # proposer overlap, or one closes before its answers come
    st.tuples(st.just("wait"), st.integers(1, 12)),
)


class TestConfirmRoundDifferential:
    """A round keeps its witnesses and who answered as tuples; through
    ``on_ack`` → ``on_confirm_response`` → ``_finish_confirm_round`` it
    must send, credit and blame exactly as the set-based round did."""

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        # the fixture is read, never changed: it only names the host class
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(steps=st.lists(CONFIRM_STEPS, min_size=4, max_size=40))
    def test_tuple_rounds_match_set_rounds(self, fake_host, steps):
        # p_dcc one half: both engines draw from identically seeded
        # streams, so they open the same rounds only if they draw at the
        # same acks.
        lifting = replace(fake_host.lifting, p_dcc=0.5)
        hosts = [type(fake_host)(fake_host.gossip, lifting) for _ in range(2)]
        engines = [VerificationEngine(hosts[0]), SetRoundEngine(hosts[1])]
        for step in steps:
            for host, engine in zip(hosts, engines):
                if step[0] == "ack":
                    engine.on_ack(step[1], Ack(chunk_ids=(7,), partners=tuple(step[2])))
                elif step[0] == "response":
                    for _ in range(step[4]):
                        engine.on_confirm_response(step[1], ConfirmResponse(step[2], step[3]))
                else:
                    host.sim.run(until=host.sim.now + step[1] * lifting.confirm_timeout / 10)
            # the same Confirms to the same witnesses in the same order,
            # the same blames, and the same credits so far
            assert hosts[0].sent == hosts[1].sent
            assert hosts[0].blames == hosts[1].blames
            assert {
                proposer: [(r.valid, waiting(r)) for r in rounds]
                for proposer, rounds in engines[0]._confirm_rounds.items()
            } == {
                proposer: [(r.valid, r.waiting) for r in rounds]
                for proposer, rounds in engines[1]._confirm_rounds.items()
            }
        for host in hosts:
            host.sim.run()
        assert hosts[0].blames == hosts[1].blames
        assert engines[0]._confirm_rounds == engines[1]._confirm_rounds == {}
