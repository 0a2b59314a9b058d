"""Wire messages: each kind declared once, its byte counts derived.

(Top-level module so that :mod:`repro.core` can import message types
without triggering the :mod:`repro.gossip` package initialisation —
the protocol node there imports :mod:`repro.core` in turn.)

A kind is declared by :func:`kind`: its category, its channel, and its
fields, whose annotations are the one schema both byte counts read.  The
live plane's codec (:mod:`repro.wire_codec`) reads the plain types, as
``typing.get_type_hints`` strips the metadata.  The paper's byte model
(§7), which the simulator accounts and Tables 3 and 5 are computed from,
reads each field's width from its ``Annotated`` metadata, through the
aliases below: 6-byte node ids (IPv4 + port); 4-byte chunk ids, proposal
ids, periods, counters and blame values / scores; 1-byte flags.  A
sequence costs its items, a fixed tuple its members, a ``PAYLOAD`` field
its own value (the chunk travels, not its size), and every message a
1-byte type tag plus its channel's header: 28 bytes of IP + UDP, or 40
of IP + TCP (the audit exchange, §5.3).

One compile step at import, :func:`model_size`, turns each declaration
into its entry in :data:`MODEL_SIZES`: an ``int`` for a
payload-independent kind, otherwise a sizer of one message.  A field
without a width fails that step, so no kind can under-count.

The wire facts both planes read live here too: the two channels
(:class:`Transport`, aliased :data:`UDP` / :data:`TCP`) and the four
categories (``data`` / ``verification`` / ``reputation`` / ``control``)
that feed the simulator's byte accounting: Table 5's "cross-checking and
blaming overhead" is the verification+reputation bytes divided by the
data bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Annotated, Tuple, get_args, get_origin, get_type_hints


class Transport(enum.Enum):
    """Which channel a message travels on: lossy datagrams, or the
    reliable stream the audit exchange uses (§5.3)."""

    UDP = "udp"
    TCP = "tcp"


# Module-level aliases: a global read, not an enum attribute lookup, on
# the send paths that run per message.
UDP = Transport.UDP
TCP = Transport.TCP

CATEGORY_DATA = "data"
CATEGORY_VERIFICATION = "verification"
CATEGORY_REPUTATION = "reputation"
CATEGORY_CONTROL = "control"

UDP_HEADER = 28
TCP_HEADER = 40
TYPE_TAG = 1

#: The width of a field that counts its own value (``Serve.payload_size``).
PAYLOAD = "payload"

NodeId = Annotated[int, 6]  # IPv4 address + port
ChunkId = Annotated[int, 4]
ProposalId = Annotated[int, 4]
Period = Annotated[int, 4]
Counter = Annotated[int, 4]  # probe sequence number, incarnation
Value = Annotated[float, 4]  # blame value, score
Flag = Annotated[bool, 1]
#: A piggybacked membership update: 1-byte status rank, node, incarnation.
Update = Tuple[Annotated[int, 1], NodeId, Counter]


def kind(category: str, channel: Transport = UDP):
    """Declare a wire kind of ``category`` sent on ``channel``: a frozen
    slotted dataclass, since simulation-scale runs hold hundreds of
    thousands of in-flight messages and ``__slots__`` removes the
    per-instance ``__dict__``."""

    def declare(cls):
        cls.CATEGORY = category
        cls.CHANNEL = channel
        return dataclass(frozen=True, slots=True)(cls)

    return declare


# ----------------------------------------------------------------------
# data path (§3)
# ----------------------------------------------------------------------
@kind(CATEGORY_DATA)
class Propose:
    """Phase 1: advertise the chunk ids received since the last period."""

    proposal_id: ProposalId
    chunk_ids: Tuple[ChunkId, ...]


@kind(CATEGORY_DATA)
class Request:
    """Phase 2: ask the proposer for the subset of chunks needed."""

    proposal_id: ProposalId
    chunk_ids: Tuple[ChunkId, ...]


@kind(CATEGORY_DATA)
class Serve:
    """Phase 3: deliver one requested chunk.

    ``origin`` is the node the receiver should consider the chunk's
    sender — honest nodes set it to themselves; a man-in-the-middle
    colluder spoofs it (§5.2, Figure 8b) so that the receiver's acks and
    fanin bookkeeping point at the colluding third party.
    """

    proposal_id: ProposalId
    chunk_id: ChunkId
    payload_size: Annotated[int, PAYLOAD]
    origin: NodeId


# ----------------------------------------------------------------------
# direct cross-checking (§5.2)
# ----------------------------------------------------------------------
@kind(CATEGORY_VERIFICATION)
class Ack:
    """``ack[i](partners)`` — sent by a receiver to each node that served
    it, after its propose phase: "I proposed your chunks to these
    partners"."""

    chunk_ids: Tuple[ChunkId, ...]
    partners: Tuple[NodeId, ...]


@kind(CATEGORY_VERIFICATION)
class Confirm:
    """``confirm[i](p1)`` — the verifier asks a witness whether
    ``proposer`` really proposed ``chunk_ids`` to it."""

    proposer: NodeId
    chunk_ids: Tuple[ChunkId, ...]


@kind(CATEGORY_VERIFICATION)
class ConfirmResponse:
    """Witness answer: did the proposal arrive and include the chunks?"""

    proposer: NodeId
    valid: Flag


# ----------------------------------------------------------------------
# reputation (§5.1)
# ----------------------------------------------------------------------
@kind(CATEGORY_REPUTATION)
class Blame:
    """A blame of ``value`` against ``target``, sent to its managers."""

    target: NodeId
    value: Value
    reason: Annotated[str, 0] = ""  # diagnostic only: the model counts none of it


@kind(CATEGORY_REPUTATION)
class ScoreQuery:
    """Ask a manager for its copy of ``target``'s score."""

    target: NodeId


@kind(CATEGORY_REPUTATION)
class ScoreReply:
    """A manager's reply to a :class:`ScoreQuery`."""

    target: NodeId
    score: Value
    known: Flag


@kind(CATEGORY_REPUTATION)
class ExpelVote:
    """A manager's vote (to its co-managers) that ``target`` be expelled."""

    target: NodeId
    reason: Annotated[str, 1] = "score"  # the model counts a 1-byte reason code


# ----------------------------------------------------------------------
# local history auditing (§5.3) — runs over TCP
# ----------------------------------------------------------------------
@kind(CATEGORY_VERIFICATION, TCP)
class AuditRequest:
    """Ask the target for its history of the last ``periods`` periods."""

    periods: Period


@kind(CATEGORY_VERIFICATION, TCP)
class AuditResponse:
    """The audited node's (possibly forged) history snapshot.

    ``proposals`` maps period index to ``(partners, chunk_ids)`` of the
    propose event of that period (empty tuple when none).
    """

    proposals: Tuple[Tuple[Period, Tuple[NodeId, ...], Tuple[ChunkId, ...]], ...]


@kind(CATEGORY_VERIFICATION, TCP)
class HistoryPollRequest:
    """A-posteriori cross-check: "did ``target`` propose these chunks to
    you around ``period``, and who asked you to confirm its proposals?"
    """

    target: NodeId
    period: Period
    chunk_ids: Tuple[ChunkId, ...]


@kind(CATEGORY_VERIFICATION, TCP)
class HistoryPollResponse:
    """Witness answer to a :class:`HistoryPollRequest`.

    ``confirm_senders`` is the witness's log of nodes that sent it
    ``Confirm`` messages about the target — the raw material of the
    fanin multiset ``F'_h`` (§5.3).
    """

    target: NodeId
    period: Period
    acknowledged: Flag
    confirm_senders: Tuple[NodeId, ...]


# ----------------------------------------------------------------------
# SWIM-style failure detection (membership plane)
# ----------------------------------------------------------------------
@kind(CATEGORY_CONTROL)
class Ping:
    """Direct liveness probe; carries the prober's incarnation plus a
    bounded batch of piggybacked membership updates."""

    seq: Counter
    incarnation: Counter
    updates: Tuple[Update, ...]


@kind(CATEGORY_CONTROL)
class PingAck:
    """Answer to a :class:`Ping`; ``target`` names the node vouched for
    (itself on a direct ack, the probed node on a relayed one)."""

    seq: Counter
    target: NodeId
    incarnation: Counter
    updates: Tuple[Update, ...]


@kind(CATEGORY_CONTROL)
class PingReq:
    """Indirect probe: ask a proxy to ping ``target`` on our behalf
    (SWIM's ping-req, defeating path asymmetry and local loss)."""

    seq: Counter
    target: NodeId
    incarnation: Counter
    updates: Tuple[Update, ...]


@kind(CATEGORY_CONTROL)
class MembershipUpdate:
    """Pure dissemination rider: membership updates piggybacked on the
    propose fan-out when there is no probe to carry them."""

    updates: Tuple[Update, ...]


#: Every wire message class, in declaration order.  The protocol node
#: pre-seeds its dispatch table with all of them (absent handlers map to
#: ``None``) so the network's delivery drain resolves handlers with a
#: plain subscript that can only miss for non-protocol message types.
WIRE_MESSAGE_CLASSES = (
    Propose,
    Request,
    Serve,
    Ack,
    Confirm,
    ConfirmResponse,
    Blame,
    ScoreQuery,
    ScoreReply,
    ExpelVote,
    AuditRequest,
    AuditResponse,
    HistoryPollRequest,
    HistoryPollResponse,
    Ping,
    PingAck,
    PingReq,
    MembershipUpdate,
)


# ----------------------------------------------------------------------
# the byte model, compiled at import
# ----------------------------------------------------------------------
def _widths(members, loops: list):
    """``(fixed bytes, source terms of the bytes that vary)`` of a record
    given as ``(hint, source reference)`` members.  A sequence whose
    items vary in size appends its ``for`` loop to ``loops`` instead."""
    fixed, terms = 0, []
    for hint, ref in members:
        args = get_args(hint)
        if get_origin(hint) is Annotated:
            if hint.__metadata__[0] is PAYLOAD:
                terms.append(ref)
            else:
                fixed += hint.__metadata__[0]
        elif get_origin(hint) is not tuple:
            raise TypeError(f"field {ref} of type {hint!r} declares no byte width")
        elif args[-1] is not Ellipsis:  # a fixed tuple: its members
            width, varying = _widths([(arg, f"{ref}[{i}]") for i, arg in enumerate(args)], loops)
            fixed += width
            terms += varying
        else:
            nested = []
            item, varying = _widths([(args[0], "x")], nested)
            if nested:
                raise TypeError(f"field {ref} nests sequences of variable-size items")
            if varying:
                loops.append(f"    for x in {ref}:\n        n += {' + '.join([str(item), *varying])}\n")
            elif item:
                terms.append(f"{item} * len({ref})")
    return fixed, terms


def model_size(cls):
    """Model bytes of the kind ``cls``: an ``int`` when no field varies,
    otherwise a sizer of one message.

    The sizer is the formula a hand-written method would hold, compiled:
    one frame plus one ``len`` per counted sequence, on the send path.
    A field whose annotation carries no width raises ``TypeError``.
    """
    hints = get_type_hints(cls, include_extras=True)
    loops: list = []
    try:
        fixed, terms = _widths([(hints[f.name], f"m.{f.name}") for f in fields(cls)], loops)
    except TypeError as exc:
        raise TypeError(f"wire kind {cls.__name__}: {exc}") from None
    fixed += TYPE_TAG + (TCP_HEADER if cls.CHANNEL is TCP else UDP_HEADER)
    if not terms and not loops:
        return fixed
    total = " + ".join([str(fixed), *terms])
    body = f"    n = {total}\n{''.join(loops)}    return n\n" if loops else f"    return {total}\n"
    name = f"{cls.__name__}_size"
    namespace: dict = {}
    # Compiled under this module's file name, so a profile charges the
    # sizer to the wire layer.
    exec(compile(f"def {name}(m):\n{body}", __file__, "exec"), namespace)
    return namespace[name]


#: kind -> model bytes: an ``int``, or the sizer of one message.
MODEL_SIZES = {cls: model_size(cls) for cls in WIRE_MESSAGE_CLASSES}
#: The kinds that travel on the stream (TCP) rather than as datagrams.
TCP_KINDS = frozenset(cls for cls in WIRE_MESSAGE_CLASSES if cls.CHANNEL is TCP)
