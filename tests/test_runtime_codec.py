"""Wire codec: lossless round trips for every registered message type.

The property test derives a hypothesis strategy for each class in the
codec registry from its dataclass type hints (with handcrafted strategies
for crypto/blockchain leaves, whose ``__post_init__`` validation rejects
arbitrary field values), then asserts ``decode(encode(m)) == m`` across
the lot — including signatures surviving the trip verbatim.
"""

import asyncio
import dataclasses
import json
import pathlib
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.blockchain.script import LockingScript, Witness
from repro.blockchain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.core import messages as m
from repro.core.deposits import DepositRecord, DepositStatus
from repro.core.state import MultihopStage
from repro.crypto.ecdsa import Signature
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.multisig import MultisigSpec
from repro.runtime import codec
from repro.runtime import messages as runtime_messages  # noqa: F401 — registers tags 50+
from repro.tee.attestation import Quote

_KEYS = [KeyPair.from_seed(f"codec-test-{i}".encode()) for i in range(4)]

public_keys = st.sampled_from([pair.public for pair in _KEYS])
signatures = st.binary(min_size=32, max_size=32).map(
    lambda digest: _KEYS[0].private.sign(digest)
)
txids = st.binary(min_size=32, max_size=32).map(bytes.hex)
outpoints = st.builds(OutPoint, txid=txids, index=st.integers(0, 3))
addresses = st.text(
    alphabet="0123456789abcdef", min_size=1, max_size=40
)
multisig_specs = st.integers(1, 3).flatmap(
    lambda size: st.builds(
        MultisigSpec,
        threshold=st.integers(1, size),
        public_keys=st.just(tuple(pair.public for pair in _KEYS[:size])),
    )
)
locking_scripts = st.one_of(
    st.builds(LockingScript.pay_to_address, addresses),
    st.builds(LockingScript.pay_to_multisig, multisig_specs),
)
witnesses = st.builds(
    Witness,
    signatures=st.lists(signatures, max_size=2).map(tuple),
    public_key=st.one_of(st.none(), public_keys),
)
tx_outputs = st.builds(
    TxOutput, value=st.integers(0, 2**48), script=locking_scripts
)
tx_inputs = st.builds(TxInput, outpoint=outpoints, witness=witnesses)
transactions = st.one_of(
    # Regular spend: unique outpoints per __post_init__.
    st.builds(
        Transaction,
        inputs=st.lists(tx_inputs, min_size=1, max_size=3,
                        unique_by=lambda i: i.outpoint).map(tuple),
        outputs=st.lists(tx_outputs, min_size=1, max_size=3).map(tuple),
        is_coinbase=st.just(False),
        nonce=st.integers(0, 2**31),
    ),
    # Coinbase: no inputs allowed.
    st.builds(
        Transaction,
        inputs=st.just(()),
        outputs=st.lists(tx_outputs, min_size=1, max_size=2).map(tuple),
        is_coinbase=st.just(True),
        nonce=st.integers(0, 2**31),
    ),
)
quotes = st.builds(
    Quote,
    measurement=st.binary(min_size=32, max_size=32),
    enclave_key=public_keys,
    report_data=st.binary(max_size=40),
    signature=signatures,
)

deposit_records = st.builds(
    DepositRecord, outpoint=outpoints, value=st.integers(1, 2**48),
    spec=multisig_specs, status=st.sampled_from(DepositStatus),
    channel_id=st.one_of(st.none(), st.text(max_size=8)),
    committee=st.lists(st.text(max_size=8), max_size=3).map(tuple),
    multisig_address=st.one_of(st.none(), addresses),
    fee=st.integers(0, 2**20),
)

_LEAVES = {
    int: st.integers(-(2**62), 2**62),
    bool: st.booleans(),
    str: st.text(max_size=16),
    bytes: st.binary(max_size=32),
    float: st.floats(allow_nan=False),
    PublicKey: public_keys,
    Signature: signatures,
    OutPoint: outpoints,
    MultisigSpec: multisig_specs,
    LockingScript: locking_scripts,
    Witness: witnesses,
    TxOutput: tx_outputs,
    TxInput: tx_inputs,
    Transaction: transactions,
    Quote: quotes,
    set: st.sets(outpoints, max_size=3),
    frozenset: st.frozensets(txids, max_size=3),
    MultihopStage: st.sampled_from(MultihopStage),
    DepositStatus: st.sampled_from(DepositStatus),
    DepositRecord: deposit_records,
}


def _strategy_for(hint):
    if hint in _LEAVES:
        return _LEAVES[hint]
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is tuple:
        if len(args) == 2 and args[1] is Ellipsis:
            return st.lists(_strategy_for(args[0]), max_size=3).map(tuple)
        return st.tuples(*(_strategy_for(arg) for arg in args))
    if origin is set:
        return st.sets(_strategy_for(args[0]), max_size=3)
    if origin is dict:
        return st.dictionaries(_strategy_for(args[0]),
                               _strategy_for(args[1]), max_size=2)
    if origin is typing.Union:
        options = [st.none() if arg is type(None) else _strategy_for(arg)
                   for arg in args]
        return st.one_of(*options)
    if dataclasses.is_dataclass(hint):
        strategy = _class_strategy(hint)
        _LEAVES[hint] = strategy  # memoise (PathDescriptor nests widely)
        return strategy
    raise TypeError(f"no strategy for type hint {hint!r}")


def _class_strategy(cls):
    if cls in _LEAVES:
        return _LEAVES[cls]
    hints = typing.get_type_hints(cls)
    return st.builds(cls, **{
        field.name: _strategy_for(hints[field.name])
        for field in dataclasses.fields(cls)
    })


# Every registered type except SignedMessage (its ``body: Any`` field gets
# a dedicated test below with real signatures over real message bodies).
REGISTERED = [cls for cls in codec._BY_TAG.values()
              if cls is not m.SignedMessage]


@pytest.mark.parametrize("cls", REGISTERED, ids=lambda cls: cls.__name__)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_registered_type_round_trips(cls, data):
    original = data.draw(_class_strategy(cls))
    encoded = codec.encode(original)
    decoded = codec.decode(encoded)
    assert decoded == original
    assert type(decoded) is cls


_bodies = st.one_of(
    st.builds(m.Paid, channel_id=st.text(max_size=8),
              amount=st.integers(1, 10**9), sequence=st.integers(0, 10**6),
              batch_count=st.integers(1, 100)),
    st.builds(m.NewChannelAck, channel_id=st.text(max_size=8),
              my_address=addresses, remote_address=addresses),
    st.builds(m.SettleNotify, channel_id=st.text(max_size=8),
              settlement_txid=txids),
)


@settings(max_examples=50, deadline=None)
@given(body=_bodies, signer=st.sampled_from(_KEYS))
def test_signed_message_round_trips_and_verifies(body, signer):
    signed = m.SignedMessage.create(body, signer.private)
    decoded = codec.decode(codec.encode(signed))
    assert decoded == signed
    assert decoded.body == body
    decoded.verify(expected_sender=signer.public)  # raises on failure


def value_bytes(value):
    """``value``'s encoding without the frame prefix."""
    return codec.encode(value)[len(codec.MAGIC) + 2:]


class TestCodecFraming:
    def test_bad_magic_rejected(self):
        with pytest.raises(codec.CodecError, match="magic"):
            codec.decode(b"NOPE" + codec.encode(1)[4:])

    def test_unsupported_version_rejected(self):
        frame = bytearray(codec.encode(1))
        frame[3] = 99
        with pytest.raises(codec.CodecError, match="version"):
            codec.decode(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = codec.encode([1, 2, 3, "abcdef"])
        with pytest.raises(codec.CodecError, match="truncated"):
            codec.decode(frame[:-3])

    def test_trailing_garbage_rejected(self):
        with pytest.raises(codec.CodecError, match="trailing"):
            codec.decode(codec.encode(7) + b"\x00")

    def test_unknown_tag_rejected(self):
        # version-2 layout: flags byte (0 = no header) before the value.
        frame = codec.MAGIC + bytes([codec.VERSION, 0x00, 0x10, 0x7F])
        with pytest.raises(codec.CodecError, match="unknown wire tag"):
            codec.decode(frame)

    @pytest.mark.parametrize("tag, fields", [
        (37, (b"measurement",)),                 # Attest
        (38, ("primary",)),                      # AddBackup
        (39, ("chain", b"blob", b"digest", 3)),  # StateUpdate
        (40, ("chain", 3)),                      # StateUpdateAck
        (41, ("chain", "reason")),               # Freeze
        (56, (9, ("txid",))),                    # ChainMine
        (42, ("chan", 1, 3, 0, 700, 300)),       # ChannelCheckpoint
        (52, ("b", False, b"sealed", "a")),      # Envelope
    ])
    def test_retired_tags_no_longer_decode(self, tag, fields):
        """Frames that decoded from any peer's bytes while nothing in the
        program constructed or handled their classes.  The tags stay
        retired: a reused one would give old frames a new meaning."""
        frame = (codec.MAGIC + bytes([codec.VERSION, 0x00, 0x10])
                 + codec._uvarint(tag) + codec._uvarint(len(fields))
                 + b"".join(value_bytes(value) for value in fields))
        with pytest.raises(codec.CodecError, match="unknown wire tag"):
            codec.decode(frame)

    @pytest.mark.parametrize("tag, body", [
        # A set holding a list, a frozenset holding a dict: unhashable.
        (70, codec._uvarint(1) + value_bytes([1])),
        (71, codec._uvarint(1) + value_bytes({"k": 1})),
        # No such MultihopStage, no such DepositStatus.
        (72, value_bytes("no-such-stage")),
        (73, value_bytes(7)),
    ])
    def test_storage_tags_refuse_what_they_cannot_rebuild(self, tag, body):
        frame = (codec.MAGIC + bytes([codec.VERSION, 0x00, 0x10])
                 + codec._uvarint(tag) + body)
        with pytest.raises(codec.CodecError, match="cannot rebuild"):
            codec.decode(frame)

    def test_unencodable_object_raises(self):
        with pytest.raises(codec.CodecError, match="no wire encoding"):
            codec.encode(object())

    def test_encodable_and_size_helpers(self):
        assert codec.encoded_size({"a": (1, 2.5, None, True)}) is not None
        assert codec.encoded_size(object()) is None
        assert codec.encoded_size(b"x" * 100) == len(codec.encode(b"x" * 100))

    @given(value=st.integers(-(2**200), 2**200))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_precision_ints(self, value):
        assert codec.decode(codec.encode(value)) == value

    def test_bool_and_int_stay_distinct(self):
        assert codec.decode(codec.encode(True)) is True
        assert codec.decode(codec.encode(1)) == 1
        assert codec.decode(codec.encode(1)) is not True

    def test_nested_containers(self):
        value = {"k": [(1, b"\x00"), (2, None)], "nested": {"deep": (3.5,)}}
        assert codec.decode(codec.encode(value)) == value


# ---------------------------------------------------------------------------
# Version-2 trace header
# ---------------------------------------------------------------------------

from repro.obs import NO_TRACE  # noqa: E402
from repro.obs.context import TraceContext  # noqa: E402


@dataclasses.dataclass(frozen=True)
class _GrownSchema:
    """Test-only schema that grew a defaulted field sorting last."""

    x: int
    zz_added: float = 0.0


codec.register_dataclass(99, _GrownSchema)  # tag 99: test block, never shipped


class TestTraceHeader:
    def test_traced_frame_round_trips(self):
        context = TraceContext(trace_id="a" * 16, span_id="b" * 16,
                               parent_id="c" * 16)
        frame = codec.encode({"amount": 7}, trace=context)
        assert frame[:5] == codec.MAGIC + bytes([codec.VERSION, 0x01])
        value, decoded = codec.decode_with_trace(frame)
        assert value == {"amount": 7}
        assert decoded == context
        # decode() drops the header but still accepts the frame.
        assert codec.decode(frame) == {"amount": 7}

    def test_untraced_frame_prefix_is_constant_and_context_none(self):
        frame = codec.encode([1, 2])
        assert frame[:5] == codec.MAGIC + bytes([codec.VERSION, 0x00])
        value, context = codec.decode_with_trace(frame)
        assert value == [1, 2]
        assert context is None

    def test_root_context_empty_parent_survives(self):
        root = TraceContext.root()
        assert root.parent_id == ""
        _, decoded = codec.decode_with_trace(codec.encode(0, trace=root))
        assert decoded == root

    def test_version1_frame_still_decodes(self):
        # A v1 frame is MAGIC ‖ 0x01 ‖ value — no flags byte at all.
        body = codec.encode("hello")[5:]
        v1 = codec.MAGIC + bytes([1]) + body
        value, context = codec.decode_with_trace(v1)
        assert value == "hello"
        assert context is None

    def test_unknown_header_flags_rejected(self):
        frame = codec.MAGIC + bytes([codec.VERSION, 0x02]) + codec.encode(0)[5:]
        with pytest.raises(codec.CodecError, match="header flags"):
            codec.decode(frame)

    def test_empty_trace_id_decodes_to_no_context(self):
        # Three zero-length header strings: a peer that set the flag but
        # carried nothing; from_fields treats it as untraced.
        frame = (codec.MAGIC + bytes([codec.VERSION, 0x01])
                 + b"\x00\x00\x00" + codec.encode(5)[5:])
        value, context = codec.decode_with_trace(frame)
        assert value == 5
        assert context is None

    def test_trailing_defaulted_fields_may_be_omitted(self):
        # The shape an older peer emits: field count 1, no zz_added bytes.
        old_frame = (codec.MAGIC + bytes([codec.VERSION, 0x00])
                     + bytes([0x10, 99]) + bytes([1])  # tag, count
                     + bytes([0x03, 10]))              # int 5 (zigzag)
        assert codec.decode(old_frame) == _GrownSchema(5, 0.0)
        # But a *required* field can never be omitted.
        empty = (codec.MAGIC + bytes([codec.VERSION, 0x00])
                 + bytes([0x10, 99]) + bytes([0]))
        with pytest.raises(codec.CodecError, match="required"):
            codec.decode(empty)

    def test_handshake_timestamps_ride_as_trailing_defaults(self):
        # Hello/HelloAck grew t_* timestamp fields and then the topo_key
        # gossip-key field, all sorting last, so the registry must treat
        # them as omittable.
        for cls, grown in ((runtime_messages.Hello,
                            {"t_sent", "topo_key"}),
                           (runtime_messages.HelloAck,
                            {"t_echo", "t_received", "t_sent",
                             "topo_key"})):
            names = sorted(f.name for f in dataclasses.fields(cls))
            assert set(names[-len(grown):]) == grown, cls.__name__

    def test_disabled_tracing_allocates_no_context_objects(self, monkeypatch):
        # The acceptance guard: with tracing off, the wire path must not
        # construct a single TraceContext — encode uses the precomputed
        # plain prefix and decode returns None without touching the class.
        constructed = []
        original_init = TraceContext.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            original_init(self, *args, **kwargs)

        # ``__init__``, not ``__new__``: un-patching an inherited
        # ``object.__new__`` leaves a class that rejects constructor
        # arguments, and every later test that starts a trace fails.
        monkeypatch.setattr(TraceContext, "__init__", counting_init)
        assert NO_TRACE.context is None
        for index in range(64):
            frame = codec.encode({"seq": index}, trace=NO_TRACE.context)
            assert frame[:5] == codec.MAGIC + bytes([codec.VERSION, 0x00])
            value, context = codec.decode_with_trace(frame)
            assert value == {"seq": index} and context is None
        assert constructed == []
        TraceContext.root()
        assert constructed == [1]


# ---------------------------------------------------------------------------
# The wire contract, frozen: frames the previous decoder wrote
# ---------------------------------------------------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"
# Hex frames encoded by the codec before its offset decoder: at least one
# for every registered tag, drawn from the strategies above (sets hold at
# most one member, so the frames do not depend on the hash seed), plus a
# nested container value, a version-1 frame and a traced frame.
CORPUS = json.loads((GOLDEN / "frames.json").read_text())


def reencoded(entry):
    frame = bytes.fromhex(entry["hex"])
    value, trace = codec.decode_with_trace(frame)
    if entry["type"] == "version-1":
        return frame, codec.MAGIC + bytes([1]) + value_bytes(value)
    return frame, codec.encode(value, trace=trace)


class TestGoldenCorpus:
    def test_every_registered_type_has_a_golden_frame(self):
        decoded = {type(codec.decode(bytes.fromhex(entry["hex"])))
                   for entry in CORPUS}
        assert set(codec._BY_TAG.values()) - {_GrownSchema} <= decoded

    @pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: (
        f"{entry['tag']}-{entry['type']}-{entry['hex'][-8:]}"))
    def test_decodes_and_reencodes_byte_identically(self, entry):
        frame, again = reencoded(entry)
        assert again == frame
        if entry["tag"] is not None and entry["type"] != "traced":
            assert frame[5:7] == bytes([0x10, entry["tag"]])

    def test_the_traced_and_version_1_frames_keep_their_headers(self):
        kinds = {entry["type"]: entry for entry in CORPUS}
        _, trace = codec.decode_with_trace(
            bytes.fromhex(kinds["traced"]["hex"]))
        assert trace is not None and trace.trace_id == "a1" * 8
        frame = bytes.fromhex(kinds["version-1"]["hex"])
        assert frame[3] == 1
        assert codec.decode(frame) == codec.decode(
            bytes.fromhex(kinds["dict"]["hex"]))


# ---------------------------------------------------------------------------
# Hostile bytes: every failure is a CodecError
# ---------------------------------------------------------------------------

PLAIN = codec.MAGIC + bytes([codec.VERSION, 0x00])
HOSTILE = {
    # 5,000 nested one-element tuples around a None: 10 KB.
    "deep": PLAIN + b"\x07\x01" * 5_000 + b"\x00",
    "bad-utf8": PLAIN + b"\x05\x02\xff\xfe",
    "list-key": PLAIN + b"\x09\x01" + b"\x08\x00" + b"\x00",
}


def nested(depth, leaf=None):
    """``leaf`` inside ``depth`` one-element tuples."""
    for _ in range(depth):
        leaf = (leaf,)
    return leaf


class TestHostileFrames:
    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_raises_codec_error(self, name):
        with pytest.raises(codec.CodecError):
            codec.decode(HOSTILE[name])

    def test_nesting_is_bounded_on_both_sides(self):
        deepest = nested(codec.MAX_DEPTH)
        assert codec.decode(codec.encode(deepest)) == deepest
        with pytest.raises(codec.CodecError, match="deeper"):
            codec.encode(nested(codec.MAX_DEPTH + 1))
        frame = PLAIN + b"\x07\x01" * (codec.MAX_DEPTH + 1) + b"\x00"
        with pytest.raises(codec.CodecError, match="deeper"):
            codec.decode(frame)

    def test_registered_values_count_towards_the_bound(self):
        inner = m.Paid(channel_id="c", amount=1, sequence=1)
        assert codec.decode(codec.encode(nested(codec.MAX_DEPTH - 1, inner)))
        with pytest.raises(codec.CodecError, match="deeper"):
            codec.encode(nested(codec.MAX_DEPTH, inner))

    @settings(max_examples=200, deadline=None)
    @given(frame=st.binary(max_size=64))
    def test_random_bytes_after_the_prefix(self, frame):
        try:
            codec.decode(PLAIN + frame)
        except codec.CodecError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_every_truncation_of_a_real_frame(self, data):
        entry = data.draw(st.sampled_from(CORPUS))
        frame = bytes.fromhex(entry["hex"])
        cut = data.draw(st.integers(0, len(frame) - 1))
        with pytest.raises(codec.CodecError):
            codec.decode(frame[:cut])

    def test_account_pay_answers_bad_request(self):
        from repro import obs
        from repro.runtime.daemon import NodeDaemon
        from repro.runtime.registry import code_for_exception

        with obs.collecting():  # NodeDaemon installs its own registry
            daemon = NodeDaemon("hub", allocations={"hub": 500_000})
            for name, frame in sorted(HOSTILE.items()):
                with pytest.raises(Exception) as excinfo:
                    asyncio.run(daemon._cmd_account_pay(request=frame.hex()))
                assert code_for_exception(excinfo.value) == "bad_request", \
                    name


_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.text(max_size=8), st.binary(max_size=8),
                     st.floats(allow_nan=False))
_WRAP = {
    "tuple": lambda inner: (inner,),
    "list": lambda inner: [inner, 0],
    "dict": lambda inner: {"k": inner},
}


@settings(max_examples=100, deadline=None)
@given(leaf=_scalars,
       wrappers=st.lists(st.sampled_from(sorted(_WRAP)),
                         max_size=codec.MAX_DEPTH),
       siblings=st.recursive(_scalars, lambda inner: st.one_of(
           st.lists(inner, max_size=3), st.tuples(inner, inner),
           st.dictionaries(st.text(max_size=4), inner, max_size=3)),
           max_leaves=8))
def test_nested_containers_round_trip_up_to_the_depth_bound(
        leaf, wrappers, siblings):
    value = leaf
    for wrapper in wrappers:
        value = _WRAP[wrapper](value)
    value = [value, siblings] if len(wrappers) < codec.MAX_DEPTH else value
    assert codec.decode(codec.encode(value)) == value
