"""Safe length-prefixed binary codec for the wire messages.

The live transport must never trust a peer's bytes: a pickle-based
frame is arbitrary code execution, and even a "trusted" deployment is
one compromised box away from a hostile one.  This module derives a
strict schema codec from the frozen slotted dataclasses in
:mod:`repro.wire` — every field is packed with an explicit fixed-width
encoding, every sequence is length-prefixed and capped, and decoding
validates the frame end to end (unknown type tags, truncated bodies,
trailing bytes, out-of-range counts and non-canonical booleans are all
rejected with a :class:`CodecError`).

Frame layout (the transport adds a 4-byte ``!I`` length prefix on TCP;
UDP datagrams carry one frame verbatim)::

    tag:1 | src:8 (signed big-endian) | body (per-field packing)

====================  ==================================================
``int``               8-byte signed big-endian (``!q``)
``float``             8-byte IEEE-754 big-endian (``!d``)
``bool``              1 byte, strictly ``0x00`` / ``0x01``
``str``               2-byte length + UTF-8 bytes (cap ``MAX_STR_BYTES``)
``Tuple[X, ...]``     2-byte count (cap ``MAX_SEQ_ITEMS``) + elements
``Tuple[A, B, C]``    fixed: the three elements back to back
====================  ==================================================

The type hints are the schema; what executes it is *compiled* once, at
import, into one ``(encode, decode)`` pair of closures per class.  Every
maximal run of ``int``/``float``/``bool`` fields — the ``tag|src``
header included — is a single precompiled ``struct.Struct`` fed by one
``attrgetter``, so an all-scalar message (``Serve``) is one ``pack``
out and one ``unpack_from`` in; a sequence of numbers, or of fixed
tuples of numbers (``Update``), is its count plus one ``pack`` of all
its elements; strings and sequences of composites compose the same
closures.  No frame is walked field by field.

Encoding is strict about types: an ``int`` field takes exactly the
objects with ``__index__`` (``np.int64`` yes, ``3.7`` and ``"5"`` no),
a ``float`` field anything with ``__float__``, a ``bool`` field
``bool`` / ``np.bool_``; anything else is a :class:`MalformedFrameError`,
never a silent coercion.  A string over the cap is cut on a character
boundary, so the decoder accepts every frame the encoder emits, and a
round-trip always yields plain Python values, never numpy scalars.

The codec is intentionally *not* versioned per message: the tag is the
class's index in :data:`repro.wire.WIRE_MESSAGE_CLASSES`, so the wire
format is frozen exactly as hard as that tuple's order — appending new
classes is compatible, reordering is a flag-day (and the test suite
pins the tag assignment and one golden frame per class).
"""

from __future__ import annotations

import struct
import typing
from itertools import chain
from operator import attrgetter
from typing import Tuple

import numpy as np

from repro.wire import WIRE_MESSAGE_CLASSES

__all__ = [
    "CodecError",
    "MalformedFrameError",
    "OversizedFrameError",
    "UnknownTypeError",
    "MAX_FRAME_BYTES",
    "MAX_SEQ_ITEMS",
    "MAX_STR_BYTES",
    "decode_frame",
    "encode_frame",
    "peek_src",
    "tag_of",
]


class CodecError(ValueError):
    """Base class for every frame rejection."""


class UnknownTypeError(CodecError):
    """The frame's type tag names no known message class."""


class MalformedFrameError(CodecError):
    """The frame violates the schema (truncated, trailing, bad value)."""


class OversizedFrameError(CodecError):
    """The frame (or one of its sequences) exceeds a hard cap."""


#: hard ceiling on one frame; the TCP reader checks the length prefix
#: against this *before* allocating, so a hostile 4 GiB header cannot
#: balloon memory.
MAX_FRAME_BYTES = 64 * 1024
#: elements allowed per encoded sequence (fanouts and history windows
#: are two orders of magnitude smaller).
MAX_SEQ_ITEMS = 4096
#: UTF-8 bytes allowed per string field (reasons are diagnostic tags).
MAX_STR_BYTES = 255

_INT = struct.Struct("!q")
_COUNT = struct.Struct("!H")
_HEADER_LEN = 1 + _INT.size  # tag + src

#: struct codes of the fixed-width leaves (``"tag"`` is the header's
#: pseudo-hint).  A bool is *packed* as ``?`` but *unpacked* as ``B``:
#: ``?`` would read any non-zero byte as True.
_PRIM_CODES = {"tag": "B", int: "q", float: "d", bool: "?"}


# ----------------------------------------------------------------------
# plan compilation: type hint -> (encode, decode) closures
#
#   encode(value) -> bytes               (a record: encode(*values))
#   decode(data, offset, limit) -> (value, offset after it)
# ----------------------------------------------------------------------
def _read_count(data: bytes, offset: int, limit: int, cap: int, what: str):
    """The 2-byte count at ``offset``, checked against ``cap``, and its end."""
    start = offset + _COUNT.size
    if start > limit:
        raise MalformedFrameError(f"truncated {what} count")
    count = _COUNT.unpack_from(data, offset)[0]
    if count > cap:
        raise OversizedFrameError(f"{what} of {count} exceeds cap {cap}")
    return count, start


def _encode_str(value) -> bytes:
    data = str(value).encode("utf-8")
    if len(data) > MAX_STR_BYTES:
        # Cut on a character boundary: back off while the first byte
        # left out is a continuation byte (10xxxxxx) of a kept lead.
        cut = MAX_STR_BYTES
        while data[cut] & 0xC0 == 0x80:
            cut -= 1
        data = data[:cut]
    return _COUNT.pack(len(data)) + data


def _decode_str(data: bytes, offset: int, limit: int):
    length, start = _read_count(data, offset, limit, MAX_STR_BYTES, "string")
    end = start + length
    if end > limit:
        raise MalformedFrameError("truncated string body")
    try:
        return data[start:end].decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise MalformedFrameError("invalid UTF-8 in string field") from exc


def _record_codec(hints):
    """Codec of a heterogeneous record: a class body or a fixed tuple.

    Each maximal run of fixed-width members is one ``Struct``; the
    members in between bring their own closures.  ``decode`` yields the
    values as a list; a record that is a single run without bools
    encodes with the bare ``Struct.pack`` and also returns that run's
    ``Struct`` (every other record: None).
    """
    codes = [_PRIM_CODES.get(hint) for hint in hints]
    enc_steps, dec_steps = [], []  # (enc, i, j, bools) / (dec, size, bools)
    i = 0
    while i < len(codes):
        j = i
        while j < len(codes) and codes[j] is not None:
            j += 1
        if j == i:  # a variable-width member: no j, no size
            enc, dec = _value_codec(hints[i])
            enc_steps.append((enc, i, None, ()))
            dec_steps.append((dec, None, ()))
            i += 1
            continue
        fmt = "!" + "".join(codes[i:j])
        bools = tuple(k for k in range(i, j) if codes[k] == "?")
        unpacker = struct.Struct(fmt.replace("?", "B"))
        enc_steps.append((struct.Struct(fmt).pack, i, j, bools))
        dec_steps.append((unpacker.unpack_from, unpacker.size, tuple(k - i for k in bools)))
        i = j

    def encode(*values) -> bytes:
        frame = b""
        for enc, i, j, bools in enc_steps:
            if j is None:
                frame += enc(values[i])
                continue
            for k in bools:
                flag = values[k]
                if flag is not True and flag is not False and not isinstance(flag, np.bool_):
                    raise MalformedFrameError(f"bool field holds {flag!r}")
            frame += enc(*values[i:j])
        return frame

    def decode(data: bytes, offset: int, limit: int):
        values = []
        for dec, size, bools in dec_steps:
            if size is None:
                value, offset = dec(data, offset, limit)
                values.append(value)
                continue
            end = offset + size
            if end > limit:
                raise MalformedFrameError("truncated fixed-width fields")
            run = dec(data, offset)
            if bools:
                run = list(run)
                for k in bools:
                    if run[k] > 1:
                        raise MalformedFrameError(f"non-canonical bool byte {run[k]:#x}")
                    run[k] = run[k] == 1
            values += run
            offset = end
        return values, offset

    if None not in codes and "?" not in codes:  # one run, nothing to check
        return enc_steps[0][0], decode, unpacker
    return encode, decode, None


def _seq_codec(elem):
    """Codec of ``Tuple[elem, ...]``: 2-byte count, then the elements."""
    kinds = typing.get_args(elem) if typing.get_origin(elem) is tuple else (elem,)
    if kinds and kinds[0] in (int, float) and all(kind is kinds[0] for kind in kinds):
        return _flat_seq_codec(_PRIM_CODES[kinds[0]], len(kinds), elem is not kinds[0])
    enc_one, dec_one = _value_codec(elem)

    def encode(value) -> bytes:
        if len(value) > MAX_SEQ_ITEMS:
            raise OversizedFrameError(f"sequence of {len(value)} items exceeds cap")
        return _COUNT.pack(len(value)) + b"".join(map(enc_one, value))

    def decode(data: bytes, offset: int, limit: int):
        count, offset = _read_count(data, offset, limit, MAX_SEQ_ITEMS, "sequence")
        items = []
        for _ in range(count):
            item, offset = dec_one(data, offset, limit)
            items.append(item)
        return tuple(items), offset

    return encode, decode


def _flat_seq_codec(code: str, width: int, grouped: bool):
    """A sequence of one numeric kind — ``int``, ``float``, or (``grouped``)
    fixed ``width``-tuples of either, such as ``Update`` — travels as a
    single ``pack`` / ``unpack_from`` of ``count * width`` numbers."""
    item_size = width * struct.calcsize("!" + code)

    def encode(value) -> bytes:
        count = len(value)
        if count > MAX_SEQ_ITEMS:
            raise OversizedFrameError(f"sequence of {count} items exceeds cap")
        if grouped:
            if any(map(width.__ne__, map(len, value))):
                raise MalformedFrameError(f"fixed tuple needs {width} items")
            value = chain.from_iterable(value)
        return struct.pack(f"!H{count * width}{code}", count, *value)

    def decode(data: bytes, offset: int, limit: int):
        count, start = _read_count(data, offset, limit, MAX_SEQ_ITEMS, "sequence")
        end = start + count * item_size
        if end > limit:
            raise MalformedFrameError("truncated sequence body")
        items = struct.unpack_from(f"!{count * width}{code}", data, start)
        if grouped:
            items = tuple(zip(*[iter(items)] * width))
        return items, end

    return encode, decode


def _value_codec(hint):
    """``(encode, decode)`` closures for one variable-width value."""
    if hint is str:
        return _encode_str, _decode_str
    args = typing.get_args(hint)
    if typing.get_origin(hint) is not tuple or not args:
        raise TypeError(f"unsupported wire field type: {hint!r}")
    if len(args) == 2 and args[1] is Ellipsis:
        return _seq_codec(args[0])
    encode_record, decode_record, _run = _record_codec(args)

    def encode(value) -> bytes:
        if len(value) != len(args):
            raise MalformedFrameError(f"fixed tuple needs {len(args)} items, got {len(value)}")
        return encode_record(*value)

    def decode(data: bytes, offset: int, limit: int):
        values, offset = decode_record(data, offset, limit)
        return tuple(values), offset

    return encode, decode


def _compile(cls, tag: int):
    """``(tag, field getter, encode, size)`` and ``(cls, decode, size)`` of one
    class; ``size`` is the frame size of a one-run kind, capped here, else None."""
    hints = typing.get_type_hints(cls)
    encode, decode, run = _record_codec(["tag", int, *(hints[name] for name in cls.__slots__)])
    getter = attrgetter(*cls.__slots__)
    if len(cls.__slots__) == 1:  # attrgetter of one name yields it bare
        getter = lambda message, field=getter: (field(message),)  # noqa: E731
    size = None
    if run is not None:  # its frame is one bare unpack, of a size known now
        if run.size > MAX_FRAME_BYTES:
            raise TypeError(f"{cls.__name__} frames of {run.size} bytes exceed the cap")
        size, decode = run.size, run.unpack_from
    return (tag, getter, encode, size), (cls, decode, size)


# Compiled at import: a field type added to wire.py without a codec
# mapping fails here, not on the first live send.
_TAG_OF = {cls: tag for tag, cls in enumerate(WIRE_MESSAGE_CLASSES)}
_ENCODERS, _DECODERS = {}, {}
for _cls, _tag in _TAG_OF.items():
    _ENCODERS[_cls], _DECODERS[_tag] = _compile(_cls, _tag)


def tag_of(cls) -> int:
    """The 1-byte wire tag of a message class."""
    return _TAG_OF[cls]


def encode_frame(src: int, message) -> bytes:
    """Serialise ``(src, message)`` into one self-contained frame.

    Raises :class:`UnknownTypeError` for a non-wire message class,
    :class:`MalformedFrameError` for a field value its declared type
    cannot carry, and :class:`OversizedFrameError` when the result
    exceeds :data:`MAX_FRAME_BYTES` — all sender-side programming
    errors, not network conditions, so they propagate instead of being
    counted.
    """
    try:
        tag, getter, encode, fixed = _ENCODERS[message.__class__]
    except KeyError:
        raise UnknownTypeError(
            f"{message.__class__.__name__} is not a wire message class"
        ) from None
    try:
        frame = encode(tag, src, *getter(message))
    except CodecError:
        raise
    except (TypeError, ValueError, OverflowError, struct.error) as exc:
        raise MalformedFrameError(f"unencodable field value: {exc}") from exc
    if fixed is None and len(frame) > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame of {len(frame)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return frame


def decode_frame(data: bytes):
    """Parse one frame back into ``(src, message)``.

    Strict: the tag must be known, every field must decode within
    bounds, and the body must be consumed exactly — trailing bytes are
    rejected (they would silently smuggle state past the schema).
    """
    size = len(data)
    if size > MAX_FRAME_BYTES:
        raise OversizedFrameError(
            f"frame of {size} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    if size < _HEADER_LEN:
        raise MalformedFrameError(f"frame of {size} bytes has no header")
    try:
        cls, decode, fixed = _DECODERS[data[0]]
    except KeyError:
        raise UnknownTypeError(f"unknown message tag {data[0]:#x}") from None
    if fixed is None:
        values, offset = decode(data, 0, size)
    elif size < fixed:
        raise MalformedFrameError("truncated fixed-width fields")
    else:  # one unpack, and the kind's size is where the body ends
        values, offset = decode(data), fixed
    if offset != size:
        raise MalformedFrameError(
            f"{size - offset} trailing bytes after {cls.__name__} body"
        )
    try:
        return values[1], cls(*values[2:])
    except (TypeError, ValueError) as exc:  # dataclass-level validation
        raise MalformedFrameError(f"rejected {cls.__name__}: {exc}") from exc


def peek_src(data: bytes):
    """Best-effort claimed source id of a frame (None when unreadable).

    Used to *attribute* decode failures for per-peer accounting.  The
    header is unauthenticated, so the attribution is a claim, not a
    proof — good enough to quarantine a babbling peer, not to convict
    it (exactly like an IP source address).
    """
    if len(data) < _HEADER_LEN or data[0] not in _DECODERS:
        return None
    return _INT.unpack_from(data, 1)[0]
