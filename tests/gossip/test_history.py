"""Tests for the bounded local history log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gossip.history import LocalHistory


@pytest.fixture
def history():
    h = LocalHistory(max_periods=5)
    h.begin_period(1)
    return h


class TestRecording:
    def test_requires_open_period(self):
        h = LocalHistory(5)
        assert h.fanin is None and h.confirm_senders is None
        with pytest.raises(ValueError):
            h.record_proposal((1,), (3,))

    def test_proposal(self, history):
        history.record_proposal((1, 2, 3), (10, 11))
        records = history.records()
        assert records[-1].proposal == ((1, 2, 3), (10, 11))

    def test_fanin(self, history):
        history.fanin.append(7)
        history.fanin.append(7)
        assert history.records()[-1].fanin == [7, 7]

    def test_received_proposals_accumulate(self, history):
        history.record_received_proposal(4, (1, 2))
        history.record_received_proposal(4, (3,))
        assert history.was_proposed_by(4, (1, 2, 3))

    def test_confirm_senders(self, history):
        history.confirm_senders.append((9, 2))
        history.confirm_senders.append((9, 3))
        assert history.confirm_senders_about(9) == [2, 3]
        assert history.confirm_senders_about(8) == []


class TestBounding:
    def test_ring_evicts_old_periods(self):
        h = LocalHistory(max_periods=3)
        for period in range(1, 10):
            h.begin_period(period)
            h.record_proposal((period,), (period,))
        records = h.records()
        assert len(records) == 3
        assert [r.period for r in records] == [7, 8, 9]

    def test_window_query(self):
        h = LocalHistory(max_periods=10)
        for period in range(1, 8):
            h.begin_period(period)
            h.record_proposal((period,), ())
        assert [r.period for r in h.records(last=2)] == [6, 7]

    @given(st.integers(min_value=1, max_value=40))
    def test_memory_bound_invariant(self, periods):
        h = LocalHistory(max_periods=4)
        for p in range(periods):
            h.begin_period(p)
        assert len(h.records()) == min(4, periods)


class TestWitnessQueries:
    def test_was_proposed_by_requires_all_chunks(self, history):
        history.record_received_proposal(4, (1, 2))
        assert history.was_proposed_by(4, (1,))
        assert not history.was_proposed_by(4, (1, 3))

    def test_was_proposed_by_window(self):
        h = LocalHistory(10)
        h.begin_period(1)
        h.record_received_proposal(4, (1,))
        for p in range(2, 6):
            h.begin_period(p)
        assert h.was_proposed_by(4, (1,))
        assert not h.was_proposed_by(4, (1,), last=2)


class TestSnapshot:
    def test_snapshot_form(self):
        h = LocalHistory(10)
        h.begin_period(1)
        h.record_proposal((1, 2), (5,))
        h.begin_period(2)  # no proposal this period
        h.begin_period(3)
        h.record_proposal((3,), (6,))
        snapshot = h.proposals_snapshot()
        assert snapshot == ((1, (1, 2), (5,)), (3, (3,), (6,)))


class TestRingWraparound:
    """Pin the flattened ring's behaviour across slot reuse."""

    def test_indexes_forget_evicted_proposers(self):
        h = LocalHistory(max_periods=3)
        h.begin_period(1)
        h.record_received_proposal(42, (1, 2))
        h.confirm_senders.append((42, 7))
        assert h.was_proposed_by(42, (1,))
        assert h.confirm_senders_about(42) == [7]
        for period in range(2, 6):  # wraps past period 1
            h.begin_period(period)
        assert not h.was_proposed_by(42, (1,))
        assert h.confirm_senders_about(42) == []

    def test_window_queries_after_many_wraps(self):
        h = LocalHistory(max_periods=5)
        for period in range(1, 101):
            h.begin_period(period)
            h.record_received_proposal(1, (period,))
        # Only the last 5 periods' chunks are visible, windows included.
        assert h.was_proposed_by(1, (100,))
        assert h.was_proposed_by(1, (96,))
        assert not h.was_proposed_by(1, (95,))
        assert h.was_proposed_by(1, (99,), last=2)
        assert not h.was_proposed_by(1, (98,), last=2)

    def test_records_are_reused_in_place(self):
        h = LocalHistory(max_periods=2)
        h.begin_period(1)
        first = h.records()[-1]
        h.begin_period(2)
        h.begin_period(3)  # wraps onto the slot of period 1
        reused = h.records()[-1]
        assert reused is first
        assert reused.period == 3
        assert reused.proposal is None
        assert reused.fanin == []
        assert reused.received_proposals == {}
        assert reused.confirm_senders == []

    def test_fanin_lazy_scan_respects_window(self):
        h = LocalHistory(max_periods=3)
        for period in range(1, 6):
            h.begin_period(period)
            h.fanin.append(period)
        assert [s for r in h.records() for s in r.fanin] == [3, 4, 5]
        assert [s for r in h.records(last=1) for s in r.fanin] == [5]

    def test_confirm_senders_window_after_wrap(self):
        h = LocalHistory(max_periods=4)
        for period in range(1, 9):
            h.begin_period(period)
            h.confirm_senders.append((2, period))
        assert h.confirm_senders_about(2) == [5, 6, 7, 8]
        assert h.confirm_senders_about(2, last=2) == [7, 8]


class IndexedConfirmSenders:
    """The per-proposer confirm index the flat log replaced — ``record_
    confirm_sender``, its eviction unwinding and ``confirm_senders_about``
    verbatim from the parent commit, on the least ring that carries them
    — kept as the reference the log is compared against."""

    class Record:
        def __init__(self, seq):
            self.seq = seq
            self.confirm_senders = {}

    def __init__(self, max_periods):
        self.max_periods = max_periods
        self._slots = [None] * max_periods
        self._current = None
        self._seq = 0
        self._confirm_idx = {}

    def begin_period(self, period):
        seq = self._seq + 1
        self._seq = seq
        slot = (seq - 1) % self.max_periods
        record = self._slots[slot]
        if record is None:
            record = self._slots[slot] = self.Record(seq)
        else:
            self._evict(record)
            record.seq = seq
            record.confirm_senders.clear()
        self._current = record

    def _evict(self, record):
        seq = record.seq
        if record.confirm_senders:
            confirm_idx = self._confirm_idx
            for proposer in record.confirm_senders:
                per_seq = confirm_idx[proposer]
                del per_seq[seq]
                if not per_seq:
                    del confirm_idx[proposer]

    def record_confirm_sender(self, proposer, verifier):
        record = self._current
        senders = record.confirm_senders.get(proposer)
        if senders is None:
            senders = record.confirm_senders[proposer] = []
            per_seq = self._confirm_idx.get(proposer)
            if per_seq is None:
                per_seq = self._confirm_idx[proposer] = {}
            per_seq[record.seq] = senders
        senders.append(verifier)

    def confirm_senders_about(self, proposer, last=None):
        per_seq = self._confirm_idx.get(proposer)
        out = []
        if per_seq is None:
            return out
        if last is None:
            for senders in per_seq.values():
                out.extend(senders)
            return out
        lo = self._seq - last + 1
        for seq, senders in per_seq.items():
            if seq >= lo:
                out.extend(senders)
        return out


CONFIRM_PROPOSERS = (0, 1, 2, 3)
#: windows asked for: all, empty, the open period, a few, more than the ring holds.
CONFIRM_WINDOWS = (None, 0, 1, 3, 99)
CONFIRM_STEPS = st.one_of(
    st.just(("begin",)),
    st.tuples(
        st.just("confirm"),
        st.sampled_from(CONFIRM_PROPOSERS),
        st.integers(min_value=10, max_value=14),
    ),
    st.tuples(
        st.just("confirm"),
        st.sampled_from(CONFIRM_PROPOSERS),
        st.integers(min_value=10, max_value=14),
    ),
)


class TestConfirmSendersLog:
    """The flat per-period ``(proposer, verifier)`` log answers every
    ``confirm_senders_about`` query as the index it replaced did — same
    verifiers, same order (oldest period first, arrival order within
    one, repeats kept) — across ring wraparound."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        max_periods=st.sampled_from((1, 2, 5)),
        steps=st.lists(CONFIRM_STEPS, min_size=1, max_size=60),
    )
    def test_matches_the_indexed_reference_after_every_step(self, max_periods, steps):
        log = LocalHistory(max_periods=max_periods)
        reference = IndexedConfirmSenders(max_periods)
        period = 0
        for step in [("begin",)] + steps:
            if step[0] == "begin":
                period += 1
                log.begin_period(period)
                reference.begin_period(period)
            else:
                _kind, proposer, verifier = step
                log.confirm_senders.append((proposer, verifier))
                reference.record_confirm_sender(proposer, verifier)
            for proposer in CONFIRM_PROPOSERS:
                for last in CONFIRM_WINDOWS:
                    assert log.confirm_senders_about(
                        proposer, last
                    ) == reference.confirm_senders_about(proposer, last), (proposer, last)
