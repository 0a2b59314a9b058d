"""The model byte count and the category of every wire kind.

Table 5's overhead percentages and Table 3's byte budget are computed
from these sizes: the paper's byte model (§7) of a 28-byte UDP or 40-byte
TCP header, a 1-byte type tag, 6-byte node ids, and 4-byte chunk ids,
proposal ids, periods, counters and values.  Each size is read where the
simulator accounts it: the bytes one send adds to the network's trace.
"""

import dataclasses
from typing import Tuple

import pytest

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.trace import (
    CATEGORY_CONTROL,
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
    MembershipUpdate,
    NodeId,
    Ping,
    PingAck,
    PingReq,
    Propose,
    Request,
    ScoreQuery,
    ScoreReply,
    Serve,
    TCP_KINDS,
    WIRE_MESSAGE_CLASSES,
    kind,
    model_size,
)

UDP = 28 + 1  # datagram header + type tag
TCP = 40 + 1  # stream header + type tag
UPDATE = 1 + 6 + 4  # status rank, node, incarnation

#: (message, model bytes), at least one row per kind.
SIZES = [
    (Propose(1, ()), UDP + 4),
    (Propose(1, (1, 2, 3)), UDP + 4 + 3 * 4),
    (Request(1, (9,)), UDP + 4 + 4),
    (Serve(proposal_id=1, chunk_id=2, payload_size=4096, origin=3), UDP + 4 + 4 + 6 + 4096),
    (Ack(chunk_ids=(1, 2), partners=(10, 11, 12)), UDP + 2 * 4 + 3 * 6),
    (Confirm(proposer=5, chunk_ids=(1, 2, 3)), UDP + 6 + 3 * 4),
    (ConfirmResponse(proposer=5, valid=True), UDP + 6 + 1),
    # The reason is diagnostic: the model counts none of it.
    (Blame(target=1, value=7.0, reason=""), UDP + 6 + 4),
    (Blame(target=1, value=7.0, reason="a very long diagnostic reason"), UDP + 6 + 4),
    (ScoreQuery(target=1), UDP + 6),
    (ScoreReply(target=1, score=0.5, known=True), UDP + 6 + 4 + 1),
    # ... and here one byte, however long it is.
    (ExpelVote(target=1), UDP + 6 + 1),
    (ExpelVote(target=1, reason="a very long diagnostic reason"), UDP + 6 + 1),
    (AuditRequest(periods=50), TCP + 4),
    (AuditResponse(()), TCP),
    (
        AuditResponse(((1, (10, 11), (100, 101, 102)), (2, (), (7,)))),
        TCP + (4 + 2 * 6 + 3 * 4) + (4 + 4),
    ),
    (HistoryPollRequest(target=1, period=5, chunk_ids=(1, 2)), TCP + 6 + 4 + 2 * 4),
    (
        HistoryPollResponse(target=1, period=5, acknowledged=True, confirm_senders=(7, 8)),
        TCP + 6 + 4 + 1 + 2 * 6,
    ),
    (Ping(seq=1, incarnation=0, updates=((0, 3, 1), (1, 4, 2))), UDP + 4 + 4 + 2 * UPDATE),
    (PingAck(seq=1, target=3, incarnation=0, updates=((0, 3, 1),)), UDP + 4 + 6 + 4 + UPDATE),
    (PingReq(seq=1, target=3, incarnation=0, updates=()), UDP + 4 + 6 + 4),
    (MembershipUpdate(updates=((0, 3, 1), (2, 5, 7), (1, 6, 0))), UDP + 3 * UPDATE),
]

CATEGORIES = {
    CATEGORY_DATA: {Propose, Request, Serve},
    CATEGORY_VERIFICATION: {
        Ack, Confirm, ConfirmResponse,
        AuditRequest, AuditResponse, HistoryPollRequest, HistoryPollResponse,
    },
    CATEGORY_REPUTATION: {Blame, ScoreQuery, ScoreReply, ExpelVote},
    CATEGORY_CONTROL: {Ping, PingAck, PingReq, MembershipUpdate},
}


class _Sink:
    def __init__(self, node_id):
        self.node_id = node_id

    def on_message(self, src, message):
        pass


def accounted_bytes(message) -> int:
    """What one send of ``message`` adds to a network's byte trace."""
    network = Network(Simulator())
    network.register(_Sink(0))
    network.register(_Sink(1))
    assert network.send(0, 1, message)
    return network.trace.sent_bytes(type(message).__name__)


@pytest.mark.parametrize(
    "message, size", SIZES, ids=[f"{type(m).__name__}-{i}" for i, (m, _s) in enumerate(SIZES)]
)
def test_model_size(message, size):
    assert accounted_bytes(message) == size


def test_every_kind_has_a_size_and_a_category():
    assert {type(message) for message, _size in SIZES} == set(WIRE_MESSAGE_CLASSES)
    assert set().union(*CATEGORIES.values()) == set(WIRE_MESSAGE_CLASSES)
    for category, kinds in CATEGORIES.items():
        for cls in kinds:
            assert cls.CATEGORY == category, cls.__name__


def test_the_audit_exchange_is_the_stream_traffic():
    assert TCP_KINDS == {AuditRequest, AuditResponse, HistoryPollRequest, HistoryPollResponse}


def test_a_field_without_a_width_fails_the_compile_step():
    @kind(CATEGORY_CONTROL)
    class Bare:
        target: NodeId
        count: int

    with pytest.raises(TypeError, match="Bare.*count"):
        model_size(Bare)


def test_a_sequence_of_variable_items_nested_in_another_fails_the_compile_step():
    @kind(CATEGORY_CONTROL)
    class Nested:
        rounds: Tuple[Tuple[Tuple[NodeId, ...], ...], ...]

    with pytest.raises(TypeError, match="Nested.*rounds"):
        model_size(Nested)


def test_messages_are_hashable_frozen_and_slotted():
    msg = Propose(1, (1, 2))
    assert hash(msg) == hash(Propose(1, (1, 2)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.proposal_id = 2
    for message, _size in SIZES:
        assert not hasattr(message, "__dict__"), type(message).__name__
