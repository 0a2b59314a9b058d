"""Wire-size and category tests for every message type.

Byte-accurate sizes matter: Table 5's overhead percentages are computed
from them.
"""

import pytest

from repro.sim.trace import (
    CATEGORY_DATA,
    CATEGORY_REPUTATION,
    CATEGORY_VERIFICATION,
)
from repro.wire import (
    Ack,
    AuditRequest,
    AuditResponse,
    Blame,
    Confirm,
    ConfirmResponse,
    ExpelVote,
    HistoryPollRequest,
    HistoryPollResponse,
    Propose,
    Request,
    ScoreQuery,
    ScoreReply,
    Serve,
    TCP_HEADER,
    UDP_HEADER,
)


class TestDataMessages:
    def test_propose_size_scales_with_chunks(self):
        empty = Propose(1, ())
        three = Propose(1, (1, 2, 3))
        assert three.wire_size() - empty.wire_size() == 3 * 4
        assert empty.wire_size() == UDP_HEADER + 1 + 4

    def test_request_size(self):
        assert Request(1, (9,)).wire_size() == UDP_HEADER + 1 + 4 + 4

    def test_serve_carries_payload(self):
        serve = Serve(proposal_id=1, chunk_id=2, payload_size=4096, origin=3)
        assert serve.wire_size() == UDP_HEADER + 1 + 4 + 4 + 6 + 4096

    def test_data_category(self):
        for msg in (Propose(1, ()), Request(1, ()), Serve(1, 2, 10, 3)):
            assert msg.CATEGORY == CATEGORY_DATA


class TestVerificationMessages:
    def test_ack_size(self):
        ack = Ack(chunk_ids=(1, 2), partners=(10, 11, 12))
        assert ack.wire_size() == UDP_HEADER + 1 + 2 * 4 + 3 * 6

    def test_confirm_size(self):
        confirm = Confirm(proposer=5, chunk_ids=(1, 2, 3))
        assert confirm.wire_size() == UDP_HEADER + 1 + 6 + 3 * 4

    def test_confirm_response_is_tiny(self):
        assert ConfirmResponse(proposer=5, valid=True).wire_size() == UDP_HEADER + 1 + 6 + 1

    def test_verification_category(self):
        for msg in (
            Ack((), ()),
            Confirm(1, ()),
            ConfirmResponse(1, True),
            AuditRequest(50),
            AuditResponse(()),
            HistoryPollRequest(1, 2, ()),
            HistoryPollResponse(1, 2, True, ()),
        ):
            assert msg.CATEGORY == CATEGORY_VERIFICATION


class TestReputationMessages:
    def test_blame_size_excludes_reason(self):
        short = Blame(target=1, value=7.0, reason="")
        long = Blame(target=1, value=7.0, reason="a very long diagnostic reason")
        assert short.wire_size() == long.wire_size() == UDP_HEADER + 1 + 6 + 4

    def test_reputation_category(self):
        for msg in (Blame(1, 1.0), ScoreQuery(1), ScoreReply(1, 0.0, True), ExpelVote(1)):
            assert msg.CATEGORY == CATEGORY_REPUTATION


class TestAuditMessages:
    def test_audit_request_uses_tcp_header(self):
        assert AuditRequest(50).wire_size() == TCP_HEADER + 1 + 4

    def test_audit_response_scales_with_history(self):
        empty = AuditResponse(())
        one = AuditResponse(((1, (10, 11), (100, 101, 102)),))
        assert one.wire_size() - empty.wire_size() == 4 + 2 * 6 + 3 * 4

    def test_history_poll_sizes(self):
        request = HistoryPollRequest(target=1, period=5, chunk_ids=(1, 2))
        assert request.wire_size() == TCP_HEADER + 1 + 6 + 4 + 2 * 4
        response = HistoryPollResponse(
            target=1, period=5, acknowledged=True, confirm_senders=(7, 8)
        )
        assert response.wire_size() == TCP_HEADER + 1 + 6 + 4 + 1 + 2 * 6


class TestTraceHelpers:
    def test_messages_are_hashable_and_frozen(self):
        msg = Propose(1, (1, 2))
        assert hash(msg) == hash(Propose(1, (1, 2)))
        with pytest.raises(Exception):
            msg.proposal_id = 2
