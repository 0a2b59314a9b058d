"""Tests for the bounded local history log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gossip.history import SHORT_IDS, LocalHistory


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

    def test_received_proposal_requires_open_period(self):
        h = LocalHistory(5)
        with pytest.raises(ValueError, match="no open period"):
            h.record_received_proposal(4, (1, 2))
        h.begin_period(1)
        assert h.records()[-1].received_proposals == {}

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
        history.confirm_senders.extend((9, 2))
        history.confirm_senders.extend((9, 3))
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
        h.confirm_senders.extend((42, 7))
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
            h.confirm_senders.extend((2, period))
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
    """The flat per-period proposer, verifier, ... log answers every
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
                log.confirm_senders.extend((proposer, verifier))
                reference.record_confirm_sender(proposer, verifier)
            for proposer in CONFIRM_PROPOSERS:
                for last in CONFIRM_WINDOWS:
                    assert log.confirm_senders_about(
                        proposer, last
                    ) == reference.confirm_senders_about(proposer, last), (proposer, last)


class IndexedReceivedProposals:
    """The per-proposer set index of received proposals the by-reference
    records replaced — ``record_received_proposal``, its eviction
    unwinding and ``was_proposed_by`` verbatim from that layout, on the
    least ring that carries them — kept as the reference the records are
    compared against."""

    class Record:
        def __init__(self, seq):
            self.seq = seq
            self.received_proposals = {}

    def __init__(self, max_periods):
        self.max_periods = max_periods
        self._slots = [None] * max_periods
        self._current = None
        self._seq = 0
        self._received_idx = {}

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
            record.received_proposals.clear()
        self._current = record

    def _evict(self, record):
        seq = record.seq
        received_idx = self._received_idx
        for proposer in record.received_proposals:
            per_seq = received_idx[proposer]
            del per_seq[seq]
            if not per_seq:
                del received_idx[proposer]

    def record_received_proposal(self, proposer, chunk_ids):
        record = self._current
        seen = record.received_proposals.get(proposer)
        if seen is None:
            seen = record.received_proposals[proposer] = set()
            per_seq = self._received_idx.get(proposer)
            if per_seq is None:
                per_seq = self._received_idx[proposer] = {}
            per_seq[record.seq] = seen
        seen.update(chunk_ids)

    def was_proposed_by(self, proposer, chunk_ids, *, last=None):
        try:
            per_seq = self._received_idx[proposer]
        except KeyError:
            return False
        wanted = set(chunk_ids)
        if last is None:
            for seen in per_seq.values():
                if wanted <= seen:
                    return True
            return False
        lo = self._seq - last + 1
        for seq in per_seq:
            if seq >= lo and wanted <= per_seq[seq]:
                return True
        return False


PROPOSERS = (0, 1, 2)
#: asked after every step: nothing, one id, several, a repeated id.
PROPOSAL_QUERIES = (
    (), (0,), (3,), (0, 1), (1, 2, 3), (2, 2), (0, 1, 2, 3), (1,) * (SHORT_IDS + 1)
)
PROPOSAL_STEPS = st.one_of(
    st.just(("begin",)),
    st.tuples(
        st.just("propose"),
        st.sampled_from(PROPOSERS),
        # duplicate ids inside one proposal included; one longer than
        # SHORT_IDS is kept as a set
        st.one_of(
            st.lists(st.integers(min_value=0, max_value=3), max_size=4),
            st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=SHORT_IDS + 1,
                max_size=SHORT_IDS + 2,
            ),
        ).map(tuple),
    ),
)


class TestReceivedProposalsByReference:
    """A received proposal is kept as the Propose's own tuple, merged
    into a set on a repeat: ``was_proposed_by`` answers as the
    per-proposer set index it replaced did, for every window, across
    repeats in one period and ring wraparound."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        max_periods=st.sampled_from((1, 2, 5)),
        steps=st.lists(PROPOSAL_STEPS, min_size=1, max_size=40),
    )
    def test_matches_the_indexed_reference_after_every_step(self, max_periods, steps):
        history = LocalHistory(max_periods=max_periods)
        reference = IndexedReceivedProposals(max_periods)
        windows = (None, -1, 0, 1, 3, max_periods, max_periods + 1)
        period = 0
        for step in [("begin",)] + steps:
            if step[0] == "begin":
                period += 1
                history.begin_period(period)
                reference.begin_period(period)
            else:
                _kind, proposer, chunk_ids = step
                history.record_received_proposal(proposer, chunk_ids)
                reference.record_received_proposal(proposer, chunk_ids)
            for proposer in PROPOSERS + (9,):
                for chunk_ids in PROPOSAL_QUERIES:
                    for last in windows:
                        assert history.was_proposed_by(
                            proposer, chunk_ids, last=last
                        ) == reference.was_proposed_by(proposer, chunk_ids, last=last), (
                            proposer,
                            chunk_ids,
                            last,
                        )

    def test_a_single_proposal_is_the_callers_tuple(self, history):
        chunk_ids = (5, 6, 7)
        history.record_received_proposal(4, chunk_ids)
        assert history.records()[-1].received_proposals[4] is chunk_ids

    def test_a_flood_from_one_proposer_is_one_set(self, history):
        for i in range(1_000):
            history.record_received_proposal(4, (i, i + 1))
        (entry,) = history.records()[-1].received_proposals.values()
        assert type(entry) is set
        assert entry == set(range(1_001))
        assert history.was_proposed_by(4, (0, 500, 1_000), last=1)

    def test_a_hostile_size_proposal_is_kept_as_a_set(self, history):
        history.record_received_proposal(4, tuple(range(4096)))
        history.record_received_proposal(5, tuple(range(SHORT_IDS)))
        entries = history.records()[-1].received_proposals
        assert type(entries[4]) is set and type(entries[5]) is tuple

    @pytest.mark.parametrize("proposal_size", (SHORT_IDS, 4096))
    def test_a_hostile_size_query_costs_linear_comparisons(self, proposal_size):
        """A 4096-id Confirm or poll whose last id was never proposed,
        against a ring of proposals of either size: the equality tests
        grow with the ids asked plus ``SHORT_IDS ** 2`` per record, not
        with the ids asked times the ids proposed."""
        slots = 5
        history = LocalHistory(max_periods=slots)
        for period in range(1, slots + 1):
            history.begin_period(period)
            history.record_received_proposal(
                4, tuple(CountedId(i) for i in range(proposal_size))
            )
        cycled = tuple(CountedId(i % proposal_size) for i in range(4095))
        repeated = tuple(CountedId(proposal_size - 1) for _ in range(4095))
        for chunk_ids in (cycled, repeated):
            for last in (None, 3):
                CountedId.comparisons = 0
                assert not history.was_proposed_by(4, chunk_ids + (CountedId(-1),), last=last)
                assert CountedId.comparisons <= 2 * 4096 + slots * max(4096, SHORT_IDS**2)


class CountedId:
    """A chunk id that counts the equality tests made against it."""

    comparisons = 0

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return hash(self.value)

    def __eq__(self, other):
        CountedId.comparisons += 1
        return self.value == other.value
