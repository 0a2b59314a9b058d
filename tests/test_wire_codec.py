"""The safe wire codec: schema round-trips, canonicalisation, strictness.

The codec replaced pickle on the live plane, so these tests are the
wire-format contract: every message class round-trips bit-exactly, numpy
scalars come back as plain Python values, and anything that is not a
well-formed frame — truncations, trailing bytes, unknown tags, oversized
sequences, non-canonical booleans — is rejected with a typed error, not
parsed optimistically.
"""

import cProfile
import pstats
import struct
import typing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import wire_codec
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
    Ping,
    PingAck,
    PingReq,
    Propose,
    Request,
    ScoreQuery,
    ScoreReply,
    Serve,
    WIRE_MESSAGE_CLASSES,
)

# ----------------------------------------------------------------------
# strategies derived from the same type hints the codec compiles
# ----------------------------------------------------------------------

_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
# numpy variants exercise the canonicalisation path: simulator state is
# full of np.int64 / np.float64 scalars.
_LEAVES = {
    int: st.one_of(_I64, st.integers(-(2**31), 2**31 - 1).map(np.int64)),
    float: st.one_of(
        st.floats(allow_nan=False, width=64),
        st.floats(allow_nan=False, width=64).map(np.float64),
    ),
    bool: st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    # 60 chars of arbitrary text stays under the 255-byte UTF-8 cap.
    str: st.text(max_size=60),
}


def _fields(cls):
    """``(name, type hint)`` of every wire field, in frame order."""
    hints = typing.get_type_hints(cls)
    return [(name, hints[name]) for name in cls.__slots__]


def _is_sequence(hint):
    args = typing.get_args(hint)
    return len(args) == 2 and args[1] is Ellipsis


def _strategy_for(hint):
    if hint in _LEAVES:
        return _LEAVES[hint]
    args = typing.get_args(hint)
    if _is_sequence(hint):
        return st.lists(_strategy_for(args[0]), max_size=6).map(tuple)
    return st.tuples(*map(_strategy_for, args))


def _message_strategy(cls):
    return st.tuples(*(_strategy_for(hint) for _name, hint in _fields(cls))).map(
        lambda values: cls(*values)
    )


def _assert_canonical(value, hint):
    """Decoded values must be plain Python types, never numpy scalars."""
    if hint in _LEAVES:
        assert type(value) is hint
        return
    assert type(value) is tuple
    args = typing.get_args(hint)
    if _is_sequence(hint):
        args = args[:1] * len(value)
    assert len(value) == len(args)
    for item, elem in zip(value, args):
        _assert_canonical(item, elem)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cls", WIRE_MESSAGE_CLASSES, ids=[c.__name__ for c in WIRE_MESSAGE_CLASSES]
    )
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_class_roundtrips_canonically(self, cls, data):
        message = data.draw(_message_strategy(cls))
        src = data.draw(_I64)
        frame = wire_codec.encode_frame(src, message)
        decoded_src, decoded = wire_codec.decode_frame(frame)
        assert decoded_src == src
        assert type(decoded) is cls
        assert decoded == message  # numpy scalars compare equal to their values
        for name, hint in _fields(cls):
            _assert_canonical(getattr(decoded, name), hint)

    def test_numpy_scalars_are_canonicalised(self):
        message = Blame(target=np.int64(7), value=np.float64(1.5), reason="x")
        _src, decoded = wire_codec.decode_frame(wire_codec.encode_frame(np.int64(1), message))
        assert type(decoded.target) is int
        assert type(decoded.value) is float
        assert decoded == message


# One hand-built instance per wire class with its frame as generated by
# the interpretive codec at commit d06a4c8: byte identity of any later
# codec is then a test, not a claim.
GOLDEN_FRAMES = [
    (1, Propose(proposal_id=7, chunk_ids=()),
     "00000000000000000100000000000000070000"),
    (-2, Request(proposal_id=-1, chunk_ids=(3, -4, 2**40)),
     "01fffffffffffffffeffffffffffffffff00030000000000000003fffffffffffffffc"
     "0000010000000000"),
    (3, Serve(proposal_id=11, chunk_id=1048577, payload_size=1316, origin=-9),
     "020000000000000003000000000000000b00000000001000010000000000000524"
     "fffffffffffffff7"),
    (4, Ack(chunk_ids=(5, 6), partners=()),
     "0300000000000000040002000000000000000500000000000000060000"),
    (5, Confirm(proposer=12, chunk_ids=(-(2**63), 2**63 - 1)),
     "040000000000000005000000000000000c000280000000000000007fffffffffffffff"),
    (6, ConfirmResponse(proposer=13, valid=True),
     "050000000000000006000000000000000d01"),
    (7, Blame(target=14, value=-0.0, reason="fan\u00e9\u2713\U0001f600"),
     "060000000000000007000000000000000e8000000000000000000c66616ec3a9e29c93"
     "f09f9880"),
    (8, ScoreQuery(target=-15),
     "070000000000000008fffffffffffffff1"),
    (9, ScoreReply(target=16, score=float("inf"), known=False),
     "08000000000000000900000000000000107ff000000000000000"),
    (10, ExpelVote(target=17, reason=""),
     "09000000000000000a00000000000000110000"),
    (11, AuditRequest(periods=50),
     "0a000000000000000b0000000000000032"),
    (12, AuditResponse(proposals=((0, (), ()), (-3, (1, 2), (9,)), (4, (), (7, 8)))),
     "0b000000000000000c0003000000000000000000000000fffffffffffffffd0002"
     "000000000000000100000000000000020001000000000000000900000000000000"
     "040000000200000000000000070000000000000008"),
    (13, HistoryPollRequest(target=18, period=-2, chunk_ids=(21,)),
     "0c000000000000000d0000000000000012fffffffffffffffe00010000000000000015"),
    (14, HistoryPollResponse(target=19, period=6, acknowledged=True, confirm_senders=(1, -1)),
     "0d000000000000000e000000000000001300000000000000060100020000000000000001"
     "ffffffffffffffff"),
    (15, Ping(seq=1, incarnation=2, updates=((0, 3, 4), (2, -5, 6), (1, 7, 0))),
     "0e000000000000000f00000000000000010000000000000002000300000000000000"
     "00000000000000000300000000000000040000000000000002fffffffffffffffb"
     "0000000000000006000000000000000100000000000000070000000000000000"),
    (16, PingAck(seq=-1, target=20, incarnation=0, updates=()),
     "0f0000000000000010ffffffffffffffff000000000000001400000000000000000000"),
    (17, PingReq(seq=8, target=21, incarnation=3, updates=((1, 22, 5),)),
     "1000000000000000110000000000000008000000000000001500000000000000030001"
     "000000000000000100000000000000160000000000000005"),
    (18, MembershipUpdate(updates=((2, 23, -1), (0, 24, 9))),
     "110000000000000012000200000000000000020000000000000017ffffffffffffffff"
     "000000000000000000000000000000180000000000000009"),
]
_GOLDEN_IDS = [type(message).__name__ for _src, message, _hex in GOLDEN_FRAMES]
_golden = pytest.mark.parametrize("src, message, frame_hex", GOLDEN_FRAMES, ids=_GOLDEN_IDS)


class TestGoldenFrames:
    def test_one_instance_per_wire_class(self):
        assert [type(m) for _src, m, _hex in GOLDEN_FRAMES] == list(WIRE_MESSAGE_CLASSES)

    @_golden
    def test_encodes_to_the_pinned_bytes(self, src, message, frame_hex):
        assert wire_codec.encode_frame(src, message).hex() == frame_hex

    @_golden
    def test_pinned_bytes_decode_to_the_instance(self, src, message, frame_hex):
        decoded_src, decoded = wire_codec.decode_frame(bytes.fromhex(frame_hex))
        assert decoded_src == src
        # repr, not ==: the sign of Blame's -0.0 must survive too
        assert repr(decoded) == repr(message)


class TestStrictnessSweep:
    @_golden
    def test_every_strict_prefix_is_rejected(self, src, message, frame_hex):
        frame = bytes.fromhex(frame_hex)
        for cut in range(len(frame)):
            with pytest.raises(wire_codec.CodecError):
                wire_codec.decode_frame(frame[:cut])

    @_golden
    def test_one_trailing_byte_is_rejected(self, src, message, frame_hex):
        with pytest.raises(wire_codec.CodecError):
            wire_codec.decode_frame(bytes.fromhex(frame_hex) + b"\x00")

    @pytest.mark.parametrize(
        "message, offset",
        [
            (ConfirmResponse(proposer=13, valid=True), 1 + 8 + 8),
            (ConfirmResponse(proposer=13, valid=False), 1 + 8 + 8),
            (ScoreReply(target=16, score=0.5, known=True), 1 + 8 + 8 + 8),
            (HistoryPollResponse(target=19, period=6, acknowledged=False,
                                 confirm_senders=(1,)), 1 + 8 + 8 + 8),
        ],
        ids=lambda value: type(value).__name__ if not isinstance(value, int) else "",
    )
    def test_every_bool_position_rejects_0x02(self, message, offset):
        frame = bytearray(wire_codec.encode_frame(1, message))
        assert frame[offset] in (0, 1)
        frame[offset] = 2
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(bytes(frame))


_FIXED_SIZE = [
    (src, message, frame_hex) for src, message, frame_hex in GOLDEN_FRAMES
    if wire_codec._DECODERS[wire_codec.tag_of(type(message))][2] is not None
]


def _rejection(data):
    """``(class, message)`` of the error ``decode_frame`` raises on ``data``."""
    with pytest.raises(wire_codec.CodecError) as info:
        wire_codec.decode_frame(data)
    return type(info.value), str(info.value)


class TestFixedSizeKinds:
    """A kind that is one fixed-width run without bools decodes with one
    bare ``unpack_from``; it must reject exactly what the general record
    decoder rejects, with the same class and message."""

    def test_the_fixed_size_kinds(self):
        assert [type(m).__name__ for _src, m, _hex in _FIXED_SIZE] == [
            "Serve", "ScoreQuery", "AuditRequest",
        ]

    @pytest.mark.parametrize(
        "src, message, frame_hex", _FIXED_SIZE,
        ids=[type(m).__name__ for _src, m, _hex in _FIXED_SIZE],
    )
    def test_prefixes_and_a_trailing_byte_fail_as_in_the_general_decoder(
        self, src, message, frame_hex, monkeypatch
    ):
        frame = bytes.fromhex(frame_hex)
        bad = [frame[:cut] for cut in range(len(frame))] + [frame + b"\x00"]
        fast = [_rejection(data) for data in bad]
        cls = type(message)
        hints = typing.get_type_hints(cls)
        _encode, general, _run = wire_codec._record_codec(
            ["tag", int, *(hints[name] for name in cls.__slots__)]
        )
        monkeypatch.setitem(
            wire_codec._DECODERS, wire_codec.tag_of(cls), (cls, general, None)
        )
        assert fast == [_rejection(data) for data in bad]
        assert fast[-1] == (
            wire_codec.MalformedFrameError, f"1 trailing bytes after {cls.__name__} body"
        )
        assert fast[-2] == (wire_codec.MalformedFrameError, "truncated fixed-width fields")


class TestEncodeSideChecks:
    """The encoder never emits a frame its own decoder rejects, and never
    silently turns a field value into a different one."""

    @pytest.mark.parametrize("char", ["a", "\u00e9", "\u2713", "\U0001f600"])
    @pytest.mark.parametrize("lead", range(250, 256))
    def test_long_reason_is_cut_on_a_character_boundary(self, char, lead):
        # the character straddles (or just touches) byte MAX_STR_BYTES
        reason = "x" * lead + char + "tail"
        frame = wire_codec.encode_frame(1, Blame(target=1, value=1.0, reason=reason))
        _src, decoded = wire_codec.decode_frame(frame)
        # the longest whole-character prefix that fits the cap
        expected = reason
        while len(expected.encode("utf-8")) > wire_codec.MAX_STR_BYTES:
            expected = expected[:-1]
        assert decoded.reason == expected

    @pytest.mark.parametrize(
        "message",
        [
            Serve(proposal_id=3.7, chunk_id=5, payload_size=1, origin=0),
            Serve(proposal_id=3, chunk_id="5", payload_size=1, origin=0),
            Propose(proposal_id=1, chunk_ids=(1, 2.0)),
            Ping(seq=1, incarnation=0, updates=((0, 1.5, 2),)),
            Blame(target=1, value="1.0"),
            ConfirmResponse(proposer=1, valid=1),
            ScoreReply(target=1, score=0.0, known="yes"),
        ],
        ids=["float-in-int", "str-in-int", "float-in-int-seq", "float-in-update",
             "str-in-float", "int-in-bool", "str-in-bool"],
    )
    def test_a_value_of_the_wrong_type_is_refused_not_coerced(self, message):
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.encode_frame(1, message)

    def test_source_id_is_checked_like_an_int_field(self):
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.encode_frame(1.5, ScoreQuery(target=1))

    def test_wrong_length_fixed_tuple_refused(self):
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.encode_frame(1, Ping(seq=1, incarnation=0, updates=((0, 1),)))
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.encode_frame(1, Ping(seq=1, incarnation=0, updates=((0, 1), (1, 2, 3, 4))))
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.encode_frame(1, AuditResponse(proposals=((0, ()),)))

    def test_oversized_sequence_refused_at_encode(self):
        too_many = tuple(range(wire_codec.MAX_SEQ_ITEMS + 1))
        with pytest.raises(wire_codec.OversizedFrameError):
            wire_codec.encode_frame(1, Propose(proposal_id=1, chunk_ids=too_many))

    def test_oversized_sequence_of_records_refused_at_encode(self):
        # A sequence of composite items (the audit history) is capped by
        # its own check, before any item is encoded.
        too_many = ((0, (), ()),) * (wire_codec.MAX_SEQ_ITEMS + 1)
        with pytest.raises(wire_codec.OversizedFrameError, match="exceeds cap"):
            wire_codec.encode_frame(1, AuditResponse(proposals=too_many))


def _codec_calls(message) -> int:
    """Calls (Python functions and C built-ins alike) cProfile sees in one
    encode_frame + decode_frame of ``message``."""
    encode, decode = wire_codec.encode_frame, wire_codec.decode_frame
    profile = cProfile.Profile()
    profile.enable()
    decode(encode(7, message))
    profile.disable()
    stats = pstats.Stats(profile).stats
    return sum(nc for (_file, _line, name), (_cc, nc, *_rest) in stats.items()
               if "disable" not in name)


class TestCallBudget:
    """Machine-independent cost witness: a frame is a handful of calls,
    not a tree walk per field (43 and 100 with the interpretive codec)."""

    def test_all_scalar_frame(self):
        # encode_frame, pack; decode_frame, len, unpack_from, __init__ —
        # no record-decoder closure and no len for the cap
        serve = Serve(proposal_id=1, chunk_id=2, payload_size=3, origin=4)
        assert _codec_calls(serve) <= 6

    def test_ten_chunk_propose(self):
        assert _codec_calls(Propose(proposal_id=1, chunk_ids=tuple(range(10)))) <= 17


class TestTagStability:
    def test_tags_are_the_frozen_tuple_order(self):
        # The wire format is exactly as frozen as this assignment:
        # reordering WIRE_MESSAGE_CLASSES is a flag-day and must show up
        # here, not in a live deployment.
        for index, cls in enumerate(WIRE_MESSAGE_CLASSES):
            assert wire_codec.tag_of(cls) == index

    def test_non_wire_class_rejected_at_encode(self):
        class NotWire:
            pass

        with pytest.raises(wire_codec.UnknownTypeError):
            wire_codec.encode_frame(1, NotWire())


class TestStrictDecoding:
    def frame(self, message=None, src=1):
        return wire_codec.encode_frame(src, message or Ping(seq=9, incarnation=0, updates=()))

    def test_empty_and_headerless(self):
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(b"")
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(b"\x00\x01\x02")

    def test_unknown_tag(self):
        bad = bytes([0xFF]) + self.frame()[1:]
        with pytest.raises(wire_codec.UnknownTypeError):
            wire_codec.decode_frame(bad)

    def test_truncated_body(self):
        frame = self.frame()
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(frame[:-1])

    def test_trailing_bytes(self):
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(self.frame() + b"\x00")

    def test_non_canonical_bool(self):
        frame = bytearray(
            wire_codec.encode_frame(
                1,
                HistoryPollResponse(
                    target=2, period=3, acknowledged=True, confirm_senders=()
                ),
            )
        )
        # acknowledged is the byte right after tag+src+target+period.
        offset = 1 + 8 + 8 + 8
        assert frame[offset] == 1
        frame[offset] = 2
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(bytes(frame))

    def test_oversized_sequence_count_rejected(self):
        frame = bytearray(self.frame(Ping(seq=1, incarnation=0, updates=())))
        # updates count is the trailing 2-byte field of a Ping frame.
        frame[-2:] = struct.pack("!H", wire_codec.MAX_SEQ_ITEMS + 1)
        with pytest.raises(wire_codec.OversizedFrameError):
            wire_codec.decode_frame(bytes(frame))

    def test_oversized_frame_rejected_both_directions(self):
        proposals = tuple(
            (i, tuple(range(50)), tuple(range(50))) for i in range(120)
        )
        with pytest.raises(wire_codec.OversizedFrameError):
            wire_codec.encode_frame(1, AuditResponse(proposals=proposals))
        with pytest.raises(wire_codec.OversizedFrameError):
            wire_codec.decode_frame(b"\x00" * (wire_codec.MAX_FRAME_BYTES + 1))

    def test_oversized_string_length_rejected(self):
        reason = "r" * 10
        frame = wire_codec.encode_frame(1, Blame(target=1, value=0.5, reason=reason))
        body = b"r" * (wire_codec.MAX_STR_BYTES + 1)
        bad = frame[: -len(reason) - 2] + struct.pack("!H", len(body)) + body
        with pytest.raises(wire_codec.OversizedFrameError):
            wire_codec.decode_frame(bad)

    def test_invalid_utf8_rejected(self):
        frame = bytearray(
            wire_codec.encode_frame(1, Blame(target=1, value=0.5, reason="ab"))
        )
        frame[-1] = 0xFF  # corrupt the last reason byte
        with pytest.raises(wire_codec.MalformedFrameError):
            wire_codec.decode_frame(bytes(frame))


class TestPeekSrc:
    def test_claimed_src_readable_from_garbage_body(self):
        frame = wire_codec.encode_frame(42, Propose(proposal_id=1, chunk_ids=(1, 2)))
        assert wire_codec.peek_src(frame) == 42
        # Still readable when the body is garbage — that is the point:
        # attribution without trusting the frame to parse.
        assert wire_codec.peek_src(frame[: wire_codec._HEADER_LEN] + b"\xff") == 42

    def test_unreadable_headers_yield_none(self):
        assert wire_codec.peek_src(b"") is None
        assert wire_codec.peek_src(b"\x00" * 5) is None
        assert wire_codec.peek_src(bytes([0xFE]) + b"\x00" * 8) is None
