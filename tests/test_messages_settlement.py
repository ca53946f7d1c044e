"""Message canonicalisation/signing and settlement construction units."""

import pytest

from repro.blockchain.transaction import OutPoint
from repro.core.deposits import DepositRecord, DepositStatus
from repro.core.messages import (
    NewChannelAck,
    Paid,
    PathDescriptor,
    SignedMessage,
    canonical_bytes,
)
from repro.core.settlement import (
    build_release,
    build_tau_from_components,
    build_unsigned_settlement,
    local_key_provider,
    sign_settlement,
)
from repro.crypto import KeyPair, MultisigSpec
from repro.errors import (
    DepositError,
    MessageAuthenticationError,
    SettlementError,
)

ALICE = KeyPair.from_seed(b"msg-alice")
BOB = KeyPair.from_seed(b"msg-bob")


class TestCanonicalBytes:
    def test_deterministic(self):
        message = Paid(channel_id="c", amount=5, sequence=1)
        assert canonical_bytes(message) == canonical_bytes(message)

    def test_field_sensitivity(self):
        a = Paid(channel_id="c", amount=5, sequence=1)
        b = Paid(channel_id="c", amount=6, sequence=1)
        assert canonical_bytes(a) != canonical_bytes(b)

    def test_type_tag_prevents_cross_type_collisions(self):
        ack = NewChannelAck(channel_id="c", my_address="x",
                            remote_address="y")
        other = NewChannelAck(channel_id="c", my_address="y",
                              remote_address="x")
        assert canonical_bytes(ack) != canonical_bytes(other)

    def test_nested_structures(self):
        path = PathDescriptor(payment_id="p", amount=10,
                              hops=("a", "b", "c"))
        assert b"hops" in canonical_bytes(path)

    def test_unsupported_type_raises(self):
        from dataclasses import dataclass

        @dataclass(frozen=True)
        class Bad:
            value: object

        with pytest.raises(TypeError):
            canonical_bytes(Bad(value=object()))


class TestSignedMessage:
    def test_roundtrip(self):
        message = SignedMessage.create(
            Paid(channel_id="c", amount=5, sequence=1), ALICE.private)
        message.verify(expected_sender=ALICE.public)

    def test_wrong_sender_rejected(self):
        message = SignedMessage.create(
            Paid(channel_id="c", amount=5, sequence=1), ALICE.private)
        with pytest.raises(MessageAuthenticationError):
            message.verify(expected_sender=BOB.public)

    def test_body_substitution_rejected(self):
        message = SignedMessage.create(
            Paid(channel_id="c", amount=5, sequence=1), ALICE.private)
        forged = SignedMessage(
            body=Paid(channel_id="c", amount=9_999, sequence=1),
            sender_key=message.sender_key, signature=message.signature)
        with pytest.raises(MessageAuthenticationError):
            forged.verify()


def _deposit(seed: bytes, value: int, index: int = 0) -> DepositRecord:
    key = KeyPair.from_seed(seed)
    return DepositRecord(
        outpoint=OutPoint(seed.hex().ljust(64, "0"), index),
        value=value,
        spec=MultisigSpec(1, (key.public,)),
    )


def _provider_for(*seeds):
    keys = {}
    for seed in seeds:
        pair = KeyPair.from_seed(seed)
        keys[pair.address()] = pair.private
    return local_key_provider(keys)


class TestSettlementConstruction:
    def test_zero_balance_party_omitted(self):
        deposit = _deposit(b"d1", 1_000)
        unsigned = build_unsigned_settlement(
            [deposit], [("btcalice", 1_000), ("btcbob", 0)])
        assert len(unsigned.outputs) == 1

    def test_output_order_canonical(self):
        deposit = _deposit(b"d1", 1_000)
        forward = build_unsigned_settlement(
            [deposit], [("btcalice", 600), ("btcbob", 400)])
        backward = build_unsigned_settlement(
            [deposit], [("btcbob", 400), ("btcalice", 600)])
        assert forward.txid == backward.txid

    def test_overspend_rejected(self):
        deposit = _deposit(b"d1", 1_000)
        with pytest.raises(SettlementError):
            build_unsigned_settlement([deposit], [("btcalice", 1_001)])

    def test_no_deposits_rejected(self):
        with pytest.raises(SettlementError):
            build_unsigned_settlement([], [("btcalice", 1)])

    def test_sign_requires_keys(self):
        deposit = _deposit(b"d1", 1_000)
        unsigned = build_unsigned_settlement([deposit], [("btcalice", 1_000)])
        with pytest.raises(SettlementError):
            sign_settlement(unsigned, [deposit], _provider_for(b"other"))

    def test_sign_with_right_key(self):
        deposit = _deposit(b"d1", 1_000)
        unsigned = build_unsigned_settlement([deposit], [("btcalice", 1_000)])
        signed = sign_settlement(unsigned, [deposit], _provider_for(b"d1"))
        assert signed.inputs[0].witness.signatures

    def test_release_pays_full_value(self):
        deposit = _deposit(b"d1", 7_777)
        release = build_release(deposit, "btcdest", _provider_for(b"d1"))
        assert release.total_output_value() == 7_777

    def test_tau_merges_payouts_per_address(self):
        deposits = [(_deposit(b"d1", 500).outpoint, 500),
                    (_deposit(b"d2", 500, 1).outpoint, 500)]
        tau = build_tau_from_components(
            deposits, [("btcmid", 300), ("btcmid", 200), ("btcend", 500)])
        assert len(tau.outputs) == 2
        by_addr = {o.script.destination(): o.value for o in tau.outputs}
        assert by_addr["btcmid"] == 500

    def test_tau_requires_deposits(self):
        with pytest.raises(SettlementError):
            build_tau_from_components([], [("btcx", 1)])

    def test_tau_overspend_rejected(self):
        deposits = [(_deposit(b"d1", 100).outpoint, 100)]
        with pytest.raises(SettlementError):
            build_tau_from_components(deposits, [("btcx", 101)])


class TestDepositRecord:
    def test_lifecycle(self):
        record = _deposit(b"lc", 100)
        record.mark_associated("chan")
        assert record.status is DepositStatus.ASSOCIATED
        assert record.channel_id == "chan"
        record.mark_free()
        assert record.is_free
        record.mark_released()
        assert record.status is DepositStatus.RELEASED

    def test_invalid_transitions(self):
        record = _deposit(b"lc2", 100)
        record.mark_associated("chan")
        with pytest.raises(DepositError):
            record.mark_associated("other")
        with pytest.raises(DepositError):
            record.mark_released()

    def test_nonpositive_value_rejected(self):
        with pytest.raises(DepositError):
            _deposit(b"bad", 0)

    def test_multisig_address_override(self):
        record = DepositRecord(
            outpoint=OutPoint("aa" * 32, 0), value=10,
            spec=MultisigSpec(1, (KeyPair.from_seed(b"k").public,)),
            multisig_address="msigREAL",
        )
        assert record.address == "msigREAL"
