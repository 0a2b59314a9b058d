"""Unit tests for the verification engine (§5.2) against a fake host."""

from collections import deque

import pytest

from repro.core.blames import (
    REASON_FANOUT_DECREASE,
    REASON_INVALID_PROPOSAL,
    REASON_NO_ACK,
    REASON_PARTIAL_SERVE,
    REASON_WITNESS_CONTRADICTION,
)
from repro.core.verification import VerificationEngine
from repro.wire import Ack, Confirm, ConfirmResponse


@pytest.fixture
def engine(fake_host):
    fake_host.forced_random = 0.0  # always trigger cross-checks
    return VerificationEngine(fake_host)


FANOUT = 4  # from the fake host's gossip params


def full_partners():
    return tuple(range(10, 10 + FANOUT))


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
        assert round_state.valid == 1 and round_state.waiting == {11, 12, 13}
        assert round_state.asked == FANOUT
        fake_host.sim.run()
        assert fake_host.blames == [(5, 3.0, REASON_WITNESS_CONTRADICTION)]

    def test_unsolicited_responses_ignored(self, engine, fake_host):
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=full_partners()))
        engine.on_confirm_response(99, ConfirmResponse(5, True))  # not a witness
        engine.on_confirm_response(10, ConfirmResponse(6, True))  # no round about 6
        (round_state,) = engine._confirm_rounds[5]
        assert round_state.valid == 0 and round_state.waiting == set(full_partners())
        fake_host.sim.run()
        assert fake_host.blames == [(5, 4.0, REASON_WITNESS_CONTRADICTION)]

    def test_a_witness_of_two_rounds_credits_the_older_first(self, engine, fake_host):
        timeout = fake_host.lifting.confirm_timeout
        engine.on_ack(5, Ack(chunk_ids=(1,), partners=(10, 11, 12, 13)))
        fake_host.sim.run(until=timeout / 2)
        engine.on_ack(5, Ack(chunk_ids=(2,), partners=(10, 14, 15, 16)))
        older, newer = engine._confirm_rounds[5]
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        assert (older.waiting, newer.waiting) == ({11, 12, 13}, {10, 14, 15, 16})
        engine.on_confirm_response(10, ConfirmResponse(5, True))
        assert (older.waiting, newer.waiting) == ({11, 12, 13}, {14, 15, 16})
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
            for name, value in vars(engine).items()
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
