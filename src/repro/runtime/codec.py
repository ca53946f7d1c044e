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
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import ReproError
from repro.obs.context import TraceContext

MAGIC = b"TCW"
VERSION = 2
SUPPORTED_VERSIONS = (1, 2)

# Header flag bits (version >= 2).
_H_TRACE = 0x01

# Precomputed frame prefix for the untraced common case, so encoding a
# message with tracing disabled allocates nothing beyond what version 1
# did (one constant concat, no per-message header objects).
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


class CodecError(ReproError):
    """Raised for unencodable objects and malformed or truncated frames."""


# ---------------------------------------------------------------------------
# Varints
# ---------------------------------------------------------------------------

def _uvarint(value: int) -> bytes:
    if value < 0:
        raise CodecError(f"uvarint cannot encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> (value.bit_length() + 1)) if value < 0 else value << 1


def _unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class _Reader:
    """Bounds-checked cursor over an immutable buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise CodecError(
                f"truncated frame: wanted {count} bytes at offset {self.pos}, "
                f"have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def byte(self) -> int:
        return self.take(1)[0]

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 1024:  # 1024 bits: far beyond any legitimate field
                raise CodecError("runaway varint")

    def done(self) -> bool:
        return self.pos >= len(self.data)


# ---------------------------------------------------------------------------
# Type registry
# ---------------------------------------------------------------------------

_Pack = Callable[[Any], bytes]
_Unpack = Callable[[_Reader], Any]


class _Entry:
    __slots__ = ("tag", "cls", "pack", "unpack")

    def __init__(self, tag: int, cls: type, pack: _Pack, unpack: _Unpack) -> None:
        self.tag = tag
        self.cls = cls
        self.pack = pack
        self.unpack = unpack


_BY_TAG: Dict[int, _Entry] = {}
_BY_TYPE: Dict[type, _Entry] = {}


def register(tag: int, cls: type, pack: _Pack, unpack: _Unpack) -> None:
    """Register a custom encoder/decoder pair under a stable wire tag."""
    if tag in _BY_TAG:
        raise CodecError(f"wire tag {tag} already taken by "
                         f"{_BY_TAG[tag].cls.__name__}")
    if cls in _BY_TYPE:
        raise CodecError(f"{cls.__name__} already registered")
    entry = _Entry(tag, cls, pack, unpack)
    _BY_TAG[tag] = entry
    _BY_TYPE[cls] = entry


def register_dataclass(tag: int, cls: type) -> None:
    """Register a dataclass with the generic field-by-field encoding.

    Fields are encoded as values in sorted-name order (the
    ``canonical_bytes`` convention); decoding reconstructs via the
    constructor so ``__post_init__`` validation runs on hostile input.

    Frames may omit trailing fields (in sorted order) that have dataclass
    defaults: a schema that grows a new defaulted field whose name sorts
    last keeps decoding frames emitted by the previous schema.
    """
    field_names = tuple(sorted(
        field.name for field in dataclasses.fields(cls)
    ))
    defaulted = {
        field.name for field in dataclasses.fields(cls)
        if field.default is not dataclasses.MISSING
        or field.default_factory is not dataclasses.MISSING
    }
    minimum = len(field_names)
    while minimum > 0 and field_names[minimum - 1] in defaulted:
        minimum -= 1

    def pack(obj: Any) -> bytes:
        parts = [_uvarint(len(field_names))]
        for name in field_names:
            parts.append(_encode_value(getattr(obj, name)))
        return b"".join(parts)

    def unpack(reader: _Reader) -> Any:
        count = reader.uvarint()
        if count > len(field_names) or count < minimum:
            raise CodecError(
                f"{cls.__name__}: frame has {count} fields, "
                f"schema has {len(field_names)} "
                f"({minimum} required)"
            )
        kwargs = {name: _decode_value(reader)
                  for name in field_names[:count]}
        try:
            return cls(**kwargs)
        except (TypeError, ValueError, ReproError) as exc:
            raise CodecError(f"cannot rebuild {cls.__name__}: {exc}") from exc

    register(tag, cls, pack, unpack)


def registered_types() -> Tuple[type, ...]:
    """All wire-registered classes (test surface)."""
    return tuple(entry.cls for entry in _BY_TAG.values())


# ---------------------------------------------------------------------------
# Value encoding
# ---------------------------------------------------------------------------

def _encode_value(value: Any) -> bytes:
    # Exact type checks for bool/int: bool is an int subclass and must win.
    if value is None:
        return bytes([_T_NONE])
    value_type = type(value)
    if value_type is bool:
        return bytes([_T_TRUE if value else _T_FALSE])
    if value_type is int:
        return bytes([_T_INT]) + _uvarint(_zigzag(value))
    if value_type is float:
        return bytes([_T_FLOAT]) + struct.pack(">d", value)
    if value_type is str:
        raw = value.encode("utf-8")
        return bytes([_T_STR]) + _uvarint(len(raw)) + raw
    if value_type in (bytes, bytearray):
        return bytes([_T_BYTES]) + _uvarint(len(value)) + bytes(value)
    if value_type is tuple:
        return (bytes([_T_TUPLE]) + _uvarint(len(value))
                + b"".join(_encode_value(item) for item in value))
    if value_type is list:
        return (bytes([_T_LIST]) + _uvarint(len(value))
                + b"".join(_encode_value(item) for item in value))
    if value_type is dict:
        parts = [bytes([_T_DICT]), _uvarint(len(value))]
        for key, item in value.items():
            parts.append(_encode_value(key))
            parts.append(_encode_value(item))
        return b"".join(parts)
    entry = _BY_TYPE.get(value_type)
    if entry is not None:
        return bytes([_T_REG]) + _uvarint(entry.tag) + entry.pack(value)
    raise CodecError(f"no wire encoding for {value_type.__name__}")


def _decode_value(reader: _Reader) -> Any:
    kind = reader.byte()
    if kind == _T_NONE:
        return None
    if kind == _T_TRUE:
        return True
    if kind == _T_FALSE:
        return False
    if kind == _T_INT:
        return _unzigzag(reader.uvarint())
    if kind == _T_FLOAT:
        return struct.unpack(">d", reader.take(8))[0]
    if kind == _T_STR:
        return reader.take(reader.uvarint()).decode("utf-8")
    if kind == _T_BYTES:
        return reader.take(reader.uvarint())
    if kind == _T_TUPLE:
        return tuple(_decode_value(reader) for _ in range(reader.uvarint()))
    if kind == _T_LIST:
        return [_decode_value(reader) for _ in range(reader.uvarint())]
    if kind == _T_DICT:
        count = reader.uvarint()
        result = {}
        for _ in range(count):
            key = _decode_value(reader)
            result[key] = _decode_value(reader)
        return result
    if kind == _T_REG:
        tag = reader.uvarint()
        entry = _BY_TAG.get(tag)
        if entry is None:
            raise CodecError(f"unknown wire tag {tag}")
        return entry.unpack(reader)
    raise CodecError(f"unknown value type byte 0x{kind:02x}")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def _encode_str_raw(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _uvarint(len(raw)) + raw


def encode(obj: Any, trace: Optional[TraceContext] = None) -> bytes:
    """Encode ``obj`` to a self-describing, versioned byte string.

    ``trace`` rides as the version-2 frame header.  With ``trace=None``
    (the default, and the only case when tracing is disabled) the frame
    prefix is a precomputed constant — no per-message header allocation.
    """
    if trace is None:
        return _PREFIX_PLAIN + _encode_value(obj)
    return (_PREFIX_TRACED
            + _encode_str_raw(trace.trace_id)
            + _encode_str_raw(trace.span_id)
            + _encode_str_raw(trace.parent_id)
            + _encode_value(obj))


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
    context.
    """
    if len(data) < 4 or data[:3] != MAGIC:
        raise CodecError("bad magic: not a repro wire frame")
    version = data[3]
    if version not in SUPPORTED_VERSIONS:
        raise CodecError(f"unsupported wire version {version}")
    reader = _Reader(data)
    reader.pos = 4
    trace: Optional[TraceContext] = None
    if version >= 2:
        flags = reader.byte()
        if flags & ~_H_TRACE:
            raise CodecError(f"unknown header flags 0x{flags:02x}")
        if flags & _H_TRACE:
            trace_id = reader.take(reader.uvarint()).decode("utf-8")
            span_id = reader.take(reader.uvarint()).decode("utf-8")
            parent_id = reader.take(reader.uvarint()).decode("utf-8")
            trace = TraceContext.from_fields(trace_id, span_id, parent_id)
    value = _decode_value(reader)
    if not reader.done():
        raise CodecError(
            f"{len(reader.data) - reader.pos} trailing bytes after value"
        )
    return value, trace


def encodable(obj: Any) -> bool:
    """Whether ``obj`` has a lossless wire encoding."""
    try:
        _encode_value(obj)
        return True
    except CodecError:
        return False


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

    def pack_public_key(key: PublicKey) -> bytes:
        return key.to_bytes()

    def unpack_public_key(reader: _Reader) -> PublicKey:
        try:
            return PublicKey.from_bytes(reader.take(33))
        except InvalidKey as exc:
            raise CodecError(str(exc)) from exc

    def pack_signature(signature: Signature) -> bytes:
        return signature.to_bytes()

    def unpack_signature(reader: _Reader) -> Signature:
        try:
            return Signature.from_bytes(reader.take(64))
        except InvalidSignature as exc:
            raise CodecError(str(exc)) from exc

    register(1, PublicKey, pack_public_key, unpack_public_key)
    register(2, Signature, pack_signature, unpack_signature)
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

    def pack_items(items) -> bytes:
        return _uvarint(len(items)) + b"".join(map(_encode_value, items))

    def read_items(reader: _Reader) -> list:
        return [_decode_value(reader) for _ in range(reader.uvarint())]

    def pack_member(member) -> bytes:
        return _encode_value(member.value)

    def rebuild(kind: type, read: _Unpack) -> _Unpack:
        def unpack(reader: _Reader) -> Any:
            try:
                return kind(read(reader))
            except (TypeError, ValueError) as exc:  # unhashable, no member
                raise CodecError(f"cannot rebuild {kind.__name__}: {exc}") \
                    from exc
        return unpack

    register(70, set, pack_items, rebuild(set, read_items))
    register(71, frozenset, pack_items, rebuild(frozenset, read_items))
    register(72, MultihopStage, pack_member,
             rebuild(MultihopStage, _decode_value))
    register(73, DepositStatus, pack_member,
             rebuild(DepositStatus, _decode_value))
    register_dataclass(74, ChannelState)
    register_dataclass(75, DepositRecord)
    register_dataclass(76, MultihopSession)
    register_dataclass(77, SealedBlob)


_register_schema()
