"""Versioned wire codec for protocol messages.

The discrete-event simulator passes message payloads between endpoints as
in-process Python objects; :func:`repro.core.messages.canonical_bytes`
serialises them only far enough to *sign*.  This module provides the
missing half: a lossless, self-describing binary encoding so a message
can be decoded on the far side of a real socket — and, with the same
schema, sealed enclave state and host metadata on disk.  Decoding only
ever builds registered types, so attacker-controlled bytes cannot run
code the way a general object serialiser would let them.

Format (all integers big-endian):

* ``encode(obj)`` emits ``MAGIC (3 bytes) || VERSION (1 byte) || header
  || value`` — the header exists only in version-2 frames (see below).
* A *value* is one type byte followed by a type-specific body.  Container
  and string lengths are unsigned LEB128 varints; ``int`` uses a zigzag
  varint so arbitrary-precision negative values survive.
* Registered types (message dataclasses, keys, signatures, transactions…)
  are ``0x10 || uvarint(tag) || body``.  Tags are part of the wire
  contract: never renumber one, only append.

Version 2 adds a one-byte *header flags* field after the version byte.
Bit 0 set means a causal trace context follows: three length-prefixed
UTF-8 strings (trace id, span id, parent id) that distributed tracing
rides across daemons.  Flags ``0x00`` means no header — the common case,
one constant byte — and version-1 frames (no flags byte at all) still
decode, so peers running the previous wire format interoperate.

Dataclass bodies encode fields sorted by name — the same convention as
``canonical_bytes``.  A frame may omit *trailing* (in sorted order)
fields that carry dataclass defaults: that is how a schema grows new
optional fields (handshake timestamps, say) without breaking frames from
peers still on the old shape.  Decoding re-runs each dataclass's
``__post_init__`` validation, which is the first line of defence against
malformed frames.

The kernel: :func:`encode` appends every value to one ``bytearray``
through a type → writer table, and each registered dataclass writes a
precomputed ``0x10 || tag || field count`` header.  :func:`decode` reads
by offset: every reader takes ``(data, pos, depth)`` and returns
``(value, next pos)``, with short strings, bytes, small ints, ``None``
and booleans decoded inline in the loop over a container's items.

Error contract: whatever the bytes, decoding returns a value or raises
:class:`CodecError` — never another exception.  Containers and
registered values nest at most :data:`MAX_DEPTH` levels deep, on both
sides: encoding a deeper value fails the same way, so everything
:func:`encode` emits decodes.
"""

from __future__ import annotations

import dataclasses
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.obs.context import TraceContext

MAGIC = b"TCW"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)
#: Levels of containers and registered values one frame may nest.  Real
#: frames stay near a dozen (a sealed multi-hop session's candidate
#: transactions, down to their witness signatures).
MAX_DEPTH = 64

# Header flag bits (version >= 2).
_H_TRACE = 0x01

# Precomputed frame prefix for the untraced common case, so encoding a
# message with tracing disabled allocates no header objects.
_PREFIX_PLAIN = MAGIC + bytes([VERSION, 0])
_PREFIX_TRACED = MAGIC + bytes([VERSION, _H_TRACE])

# Value type bytes.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_TUPLE = 0x07
_T_LIST = 0x08
_T_DICT = 0x09
_T_REG = 0x10

_CONSTANTS = (None, True, False)
_DOUBLE = struct.Struct(">d")


class CodecError(ReproError):
    """Raised for unencodable objects and malformed or truncated frames."""


def _too_deep() -> CodecError:
    return CodecError(f"value nests deeper than {MAX_DEPTH} levels")


def _truncated(pos: int, want: int, data: bytes) -> CodecError:
    return CodecError(f"truncated frame: wanted {want} bytes at offset "
                      f"{pos}, have {len(data) - pos}")


# Writers append one value to ``out``: ``writer(out, value, depth)``.
# Readers start after the value's type byte (a registered type's: after
# its tag): ``reader(data, pos, depth) -> (value, next pos)``.
_WriteFn = Callable[[bytearray, Any, int], None]
_ReadFn = Callable[[bytes, int, int], Tuple[Any, int]]

_WRITERS: Dict[type, _WriteFn] = {}
_READERS: Dict[int, _ReadFn] = {}
_BY_TAG: Dict[int, type] = {}


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _write_uvarint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _uvarint(value: int) -> bytes:
    out = bytearray()
    _write_uvarint(out, value)
    return bytes(out)


def _write_value(out: bytearray, value: Any, depth: int) -> None:
    writer = _WRITERS.get(type(value))
    if writer is None:
        raise CodecError(f"no wire encoding for {type(value).__name__}")
    writer(out, value, depth)


def _write_items(out: bytearray, items, depth: int) -> None:
    writers = _WRITERS
    for item in items:
        writer = writers.get(type(item))
        if writer is None:
            raise CodecError(f"no wire encoding for {type(item).__name__}")
        writer(out, item, depth)


def _write_none(out: bytearray, value: None, depth: int) -> None:
    out.append(_T_NONE)


def _write_bool(out: bytearray, value: bool, depth: int) -> None:
    out.append(_T_TRUE if value else _T_FALSE)


def _write_int(out: bytearray, value: int, depth: int) -> None:
    out.append(_T_INT)
    _write_uvarint(out, value << 1 if value >= 0 else ~(value << 1))


def _write_float(out: bytearray, value: float, depth: int) -> None:
    out.append(_T_FLOAT)
    out += _DOUBLE.pack(value)


def _write_str(out: bytearray, value: str, depth: int) -> None:
    raw = value.encode()
    out.append(_T_STR)
    _write_uvarint(out, len(raw))
    out += raw


def _write_bytes(out: bytearray, value: bytes, depth: int) -> None:
    out.append(_T_BYTES)
    _write_uvarint(out, len(value))
    out += value


def _sequence_writer(prefix: bytes) -> _WriteFn:
    """Writes ``prefix || count || items`` (a tuple, list, set…)."""
    def write(out: bytearray, value, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        out += prefix
        _write_uvarint(out, len(value))
        _write_items(out, value, depth + 1)
    return write


def _write_dict(out: bytearray, value: dict, depth: int) -> None:
    if depth >= MAX_DEPTH:
        raise _too_deep()
    out.append(_T_DICT)
    _write_uvarint(out, len(value))
    depth += 1
    for key, item in value.items():
        _write_value(out, key, depth)
        _write_value(out, item, depth)


_WRITERS.update({
    type(None): _write_none,
    bool: _write_bool,
    int: _write_int,
    float: _write_float,
    str: _write_str,
    bytes: _write_bytes,
    bytearray: _write_bytes,
    tuple: _sequence_writer(bytes([_T_TUPLE])),
    list: _sequence_writer(bytes([_T_LIST])),
    dict: _write_dict,
})


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _read_uvarint(data: bytes, pos: int) -> Tuple[int, int]:
    value = data[pos]
    if value < 0x80:
        return value, pos + 1
    value &= 0x7F
    shift = 7
    while True:
        pos += 1
        byte = data[pos]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos + 1
        shift += 7
        if shift > 1024:  # 1024 bits: far beyond any legitimate field
            raise CodecError("runaway varint")


def _read_value(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    return _KINDS[data[pos]](data, pos + 1, depth)


def _read_items(data: bytes, pos: int, count: int,
                depth: int) -> Tuple[List[Any], int]:
    """``count`` values from ``pos``; the common small ones inline."""
    items: List[Any] = []
    append = items.append
    kinds = _KINDS
    size = len(data)
    for _ in range(count):
        kind = data[pos]
        if kind == _T_STR or kind == _T_BYTES:
            length = data[pos + 1]
            if length < 0x80:
                start = pos + 2
                pos = start + length
                if pos > size:
                    raise _truncated(start, length, data)
                chunk = data[start:pos]
                append(chunk.decode() if kind == _T_STR else chunk)
                continue
        elif kind == _T_INT:
            raw = data[pos + 1]
            pos += 2
            if raw >= 0x80:
                raw, pos = _read_uvarint(data, pos - 1)
            append((raw >> 1) ^ -(raw & 1))
            continue
        elif kind < _T_INT:
            append(_CONSTANTS[kind])
            pos += 1
            continue
        value, pos = kinds[kind](data, pos + 1, depth)
        append(value)
    return items, pos


def _constant(value: Any) -> _ReadFn:
    def read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
        return value, pos
    return read


def _read_int(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    raw, pos = _read_uvarint(data, pos)
    return (raw >> 1) ^ -(raw & 1), pos


def _read_float(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    if pos + 8 > len(data):
        raise _truncated(pos, 8, data)
    return _DOUBLE.unpack_from(data, pos)[0], pos + 8


def _read_chunk(data: bytes, pos: int) -> Tuple[bytes, int]:
    length, pos = _read_uvarint(data, pos)
    end = pos + length
    if end > len(data):
        raise _truncated(pos, length, data)
    return data[pos:end], end


def _read_str(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    chunk, pos = _read_chunk(data, pos)
    return chunk.decode(), pos


def _read_bytes(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    return _read_chunk(data, pos)


def _read_list(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    if depth >= MAX_DEPTH:
        raise _too_deep()
    count, pos = _read_uvarint(data, pos)
    return _read_items(data, pos, count, depth + 1)


def _read_tuple(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    items, pos = _read_list(data, pos, depth)
    return tuple(items), pos


def _read_dict(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    if depth >= MAX_DEPTH:
        raise _too_deep()
    count, pos = _read_uvarint(data, pos)
    items, pos = _read_items(data, pos, 2 * count, depth + 1)
    pairs = iter(items)
    try:
        return dict(zip(pairs, pairs)), pos
    except TypeError as exc:
        raise CodecError(f"unhashable dict key: {exc}") from exc


def _read_registered(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    tag, pos = _read_uvarint(data, pos)
    reader = _READERS.get(tag)
    if reader is None:
        raise CodecError(f"unknown wire tag {tag}")
    return reader(data, pos, depth)


def _read_unknown(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    raise CodecError(f"unknown value type byte 0x{data[pos - 1]:02x}")


_KNOWN_KINDS = {
    _T_NONE: _constant(None), _T_TRUE: _constant(True),
    _T_FALSE: _constant(False),
    _T_INT: _read_int, _T_FLOAT: _read_float, _T_STR: _read_str,
    _T_BYTES: _read_bytes, _T_TUPLE: _read_tuple, _T_LIST: _read_list,
    _T_DICT: _read_dict, _T_REG: _read_registered,
}
# Type byte → reader (a list: the byte indexes it directly).
_KINDS: List[_ReadFn] = [_KNOWN_KINDS.get(kind, _read_unknown)
                         for kind in range(256)]


# ---------------------------------------------------------------------------
# Type registry
# ---------------------------------------------------------------------------

def _register(tag: int, cls: type, writer: _WriteFn, reader: _ReadFn) -> None:
    if tag in _BY_TAG:
        raise CodecError(f"wire tag {tag} already taken by "
                         f"{_BY_TAG[tag].__name__}")
    if cls in _WRITERS:
        raise CodecError(f"{cls.__name__} already registered")
    _BY_TAG[tag] = cls
    _WRITERS[cls] = writer
    _READERS[tag] = reader


def register_dataclass(tag: int, cls: type) -> None:
    """Register a dataclass with the generic field-by-field encoding.

    Fields are encoded as values in sorted-name order (the
    ``canonical_bytes`` convention); decoding reconstructs via the
    constructor so ``__post_init__`` validation runs on hostile input.

    Frames may omit trailing fields (in sorted order) that have dataclass
    defaults: a schema that grows a new defaulted field whose name sorts
    last keeps decoding frames emitted by the previous schema.
    """
    fields = dataclasses.fields(cls)
    if not all(field.init and not getattr(field, "kw_only", False)
               for field in fields):
        raise CodecError(f"{cls.__name__}: every field must be a "
                         "positional constructor argument")
    declared = [field.name for field in fields]
    names = tuple(sorted(declared))
    defaulted = {
        field.name for field in fields
        if field.default is not dataclasses.MISSING
        or field.default_factory is not dataclasses.MISSING
    }
    minimum = len(names)
    while minimum > 0 and names[minimum - 1] in defaulted:
        minimum -= 1
    width = len(names)
    header = bytes([_T_REG]) + _uvarint(tag) + _uvarint(width)
    if width == 1:
        getter = attrgetter(names[0])

        def values(obj: Any) -> Tuple[Any]:
            return (getter(obj),)
    else:
        values = attrgetter(*names)
    # Sorted-order values → constructor (declaration) order.
    order = [names.index(name) for name in declared]
    arrange = None if order == sorted(order) else itemgetter(*order)

    def write(out: bytearray, obj: Any, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        out += header
        _write_items(out, values(obj), depth + 1)

    def read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        count, pos = _read_uvarint(data, pos)
        if count > width or count < minimum:
            raise CodecError(
                f"{cls.__name__}: frame has {count} fields, "
                f"schema has {width} ({minimum} required)"
            )
        items, pos = _read_items(data, pos, count, depth + 1)
        try:
            if count < width:
                return cls(**dict(zip(names, items))), pos
            return cls(*(items if arrange is None else arrange(items))), pos
        except (TypeError, ValueError, ReproError) as exc:
            raise CodecError(f"cannot rebuild {cls.__name__}: {exc}") from exc

    _register(tag, cls, write, read)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def encode(obj: Any, trace: Optional[TraceContext] = None) -> bytes:
    """Encode ``obj`` to a self-describing, versioned byte string.

    ``trace`` rides as the version-2 frame header.  With ``trace=None``
    (the default, and the only case when tracing is disabled) the frame
    prefix is a precomputed constant — no per-message header allocation.
    """
    if trace is None:
        out = bytearray(_PREFIX_PLAIN)
    else:
        out = bytearray(_PREFIX_TRACED)
        for text in (trace.trace_id, trace.span_id, trace.parent_id):
            raw = text.encode()
            _write_uvarint(out, len(raw))
            out += raw
    _write_value(out, obj, 0)
    return bytes(out)


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode`, dropping any trace header.

    Raises :class:`CodecError` on bad magic, unsupported version, trailing
    garbage, or any structural problem — never executes embedded code.
    """
    return decode_with_trace(data)[0]


def decode_with_trace(data: bytes) -> Tuple[Any, Optional[TraceContext]]:
    """Decode a frame and return ``(value, trace_context_or_None)``.

    Accepts every version in :data:`SUPPORTED_VERSIONS`: version-1 frames
    (no header byte) produced by older peers decode with a ``None``
    context.  Any failure is a :class:`CodecError` (module doc).
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) < 4 or data[:3] != MAGIC:
        raise CodecError("bad magic: not a repro wire frame")
    version = data[3]
    if version not in SUPPORTED_VERSIONS:
        raise CodecError(f"unsupported wire version {version}")
    try:
        pos = 4
        trace: Optional[TraceContext] = None
        if version >= 2:
            flags = data[4]
            pos = 5
            if flags & ~_H_TRACE:
                raise CodecError(f"unknown header flags 0x{flags:02x}")
            if flags & _H_TRACE:
                fields = []
                for _ in range(3):
                    chunk, pos = _read_chunk(data, pos)
                    fields.append(chunk.decode())
                trace = TraceContext.from_fields(*fields)
        value, pos = _KINDS[data[pos]](data, pos + 1, 0)
    except CodecError:
        raise
    except IndexError:
        raise CodecError(
            f"truncated frame: {len(data)} bytes end inside a value"
        ) from None
    except Exception as exc:  # noqa: BLE001 — the error contract
        raise CodecError(
            f"malformed frame: {type(exc).__name__}: {exc}") from exc
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after value")
    return value, trace


def encoded_size(obj: Any) -> Optional[int]:
    """Wire size of ``obj`` in bytes, or ``None`` if not encodable.

    Used by the DES transport to account realistic message sizes.
    """
    try:
        return len(encode(obj))
    except CodecError:
        return None


# ---------------------------------------------------------------------------
# Wire schema — crypto and blockchain value types
# ---------------------------------------------------------------------------
# Tag blocks: 1–19 value types, 20–49 protocol messages (Algorithms 1–2),
# 50–69 runtime control plane (repro.runtime.messages), 70–89 stable
# storage (sealed enclave state, host metadata).  Append only.
# Retired, never reuse: 37–41 (Alg. 3 frames nothing sent or handled —
# replication runs over ecalls), 42 (a signed channel-balance checkpoint
# nothing read — payments carry no signature) and 56 (ChainMine,
# superseded by ChainBlock).

def _register_schema() -> None:
    from repro.blockchain.chain import Block
    from repro.blockchain.script import LockingScript, Witness
    from repro.blockchain.transaction import (
        OutPoint,
        Transaction,
        TxInput,
        TxOutput,
    )
    from repro.core import messages as m
    from repro.crypto.ecdsa import Signature
    from repro.crypto.keys import PublicKey
    from repro.crypto.multisig import MultisigSpec
    from repro.errors import InvalidKey, InvalidSignature
    from repro.tee.attestation import Quote

    def fixed_width(tag: int, cls: type, width: int, error: type) -> None:
        """A value that is its ``to_bytes()``: ``width`` raw bytes."""
        header = bytes([_T_REG]) + _uvarint(tag)

        def write(out: bytearray, value: Any, depth: int) -> None:
            out += header
            out += value.to_bytes()

        def read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
            end = pos + width
            if end > len(data):
                raise _truncated(pos, width, data)
            try:
                return cls.from_bytes(data[pos:end]), end
            except error as exc:
                raise CodecError(str(exc)) from exc

        _register(tag, cls, write, read)

    fixed_width(1, PublicKey, 33, InvalidKey)
    fixed_width(2, Signature, 64, InvalidSignature)
    register_dataclass(3, OutPoint)
    register_dataclass(4, MultisigSpec)
    register_dataclass(5, LockingScript)
    register_dataclass(6, Witness)
    register_dataclass(7, TxOutput)
    register_dataclass(8, TxInput)
    register_dataclass(9, Transaction)
    register_dataclass(10, Quote)
    register_dataclass(12, Block)
    register_dataclass(11, m.SignedMessage)

    register_dataclass(20, m.NewChannelAck)
    register_dataclass(21, m.ApproveMyDeposit)
    register_dataclass(22, m.ApprovedDeposit)
    register_dataclass(23, m.AssociatedDeposit)
    register_dataclass(24, m.DissociateDeposit)
    register_dataclass(25, m.DissociateDepositAck)
    register_dataclass(26, m.Paid)
    register_dataclass(27, m.SettleRequest)
    register_dataclass(28, m.SettleNotify)
    register_dataclass(29, m.PathDescriptor)
    register_dataclass(30, m.MultihopLock)
    register_dataclass(31, m.MultihopAbort)
    register_dataclass(32, m.MultihopSign)
    register_dataclass(33, m.MultihopPreUpdate)
    register_dataclass(34, m.MultihopUpdate)
    register_dataclass(35, m.MultihopPostUpdate)
    register_dataclass(36, m.MultihopRelease)

    from repro.hub import messages as hub_messages

    register_dataclass(43, hub_messages.AccountDeposit)
    register_dataclass(44, hub_messages.AccountPay)
    register_dataclass(45, hub_messages.AccountWithdraw)
    register_dataclass(46, hub_messages.AccountQuery)

    from repro.routing import messages as routing_messages

    register_dataclass(58, routing_messages.ChannelAnnounce)
    register_dataclass(59, routing_messages.ChannelUpdate)

    # What replication_state holds beyond the types above, and the blob
    # that seals it.
    from repro.core.deposits import DepositRecord, DepositStatus
    from repro.core.multihop import MultihopSession
    from repro.core.state import ChannelState, MultihopStage
    from repro.tee.sealing import SealedBlob

    def collection(tag: int, kind: type) -> None:
        """A set or frozenset: ``count || items``, like a list."""
        def read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
            items, pos = _read_list(data, pos, depth)
            try:
                return kind(items), pos
            except TypeError as exc:  # an unhashable member
                raise CodecError(
                    f"cannot rebuild {kind.__name__}: {exc}") from exc

        _register(tag, kind,
                  _sequence_writer(bytes([_T_REG]) + _uvarint(tag)), read)

    def enumeration(tag: int, kind: type) -> None:
        """An enum member: its ``value``."""
        header = bytes([_T_REG]) + _uvarint(tag)
        members = {member.value: member for member in kind}

        def write(out: bytearray, member: Any, depth: int) -> None:
            if depth >= MAX_DEPTH:
                raise _too_deep()
            out += header
            _write_value(out, member.value, depth + 1)

        def read(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
            if depth >= MAX_DEPTH:
                raise _too_deep()
            value, pos = _read_value(data, pos, depth + 1)
            try:
                return members[value], pos
            except (KeyError, TypeError):
                raise CodecError(f"cannot rebuild {kind.__name__}: "
                                 f"{value!r} is no member") from None

        _register(tag, kind, write, read)

    collection(70, set)
    collection(71, frozenset)
    enumeration(72, MultihopStage)
    enumeration(73, DepositStatus)
    register_dataclass(74, ChannelState)
    register_dataclass(75, DepositRecord)
    register_dataclass(76, MultihopSession)
    register_dataclass(77, SealedBlob)


_register_schema()
