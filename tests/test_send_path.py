"""The single authenticated send path (DESIGN.md §11).

Alg. 1 and 2 messages travel bare under the attested secure channel;
the sender is the channel's pinned key.  Identity signatures survive
only on artefacts (``ChannelCheckpoint`` always, ``Paid`` with the fast
path off).  Each reject test asserts that neither protocol state nor
the outbox moved.

Against the parent commit (every envelope ECDSA-signed): the tests
marked *pin* pass there too — they pin a reject the MAC path must keep;
the rest fail there for the reason their docstring gives.
"""

import pytest

from repro import obs
from repro.core.messages import (
    ChannelCheckpoint,
    MultihopAbort,
    MultihopLock,
    MultihopPreUpdate,
    Paid,
    PathDescriptor,
    SettleRequest,
    SignedMessage,
)
from repro.core.multihop import TeechainEnclave
from repro.core.persistence import PersistentStore
from repro.core.state import MultihopStage
from repro.crypto.keys import KeyPair, PublicKey
from repro.errors import (
    MessageAuthenticationError,
    MultihopError,
    PaymentError,
    ProtocolError,
    SettlementError,
)
from repro.network import NetworkAdversary
from repro.tee import Enclave

from tests.conftest import renew_secure_session


def fingerprint(node):
    """Everything a wrongly accepted message could have moved."""
    program = node.program
    return (
        {cid: (c.is_open, c.terminated, c.settling_offchain, c.stage,
               c.my_balance, c.remote_balance, c.locked_amount,
               sorted(c.my_deposits), sorted(c.remote_deposits))
         for cid, c in program.channels.items()},
        {outpoint: (record.status, record.channel_id)
         for outpoint, record in program.deposits.items()},
        dict(program._pay_seq_in), dict(program._pay_seq_out),
        dict(program._checkpoint_index_in), dict(program._remote_checkpoints),
        {pid: session.stage
         for pid, session in program.multihop_sessions.items()},
        dict(program.multihop_completed), dict(program.multihop_aborted),
        program.payments_sent, program.payments_received,
        list(program._outbox),
    )


def assert_rejected(receiver, peer_name, envelope, error):
    before = fingerprint(receiver)
    with pytest.raises(error):
        receiver.program.handle_envelope(peer_name, envelope)
    assert fingerprint(receiver) == before


def secure_to(sender, receiver):
    return sender.program.secure_channels[
        receiver.enclave.public_key.to_bytes()]


class TestReplayAndSessions:
    def test_replayed_stage_envelopes_rejected(self, three_hop_path):
        """*Pin.*  All six stages cross alice→bob or bob→alice; every
        recorded envelope is refused on redelivery by the secure
        channel's counter, before any stage handler runs."""
        network, alice, bob, carol, ab, bc = three_hop_path
        adversary = NetworkAdversary(network.transport)
        adversary.record("alice", "bob")
        adversary.record("bob", "alice")
        payment = alice.pay_multihop([alice, bob, carol], 1_000)
        assert alice.multihop_completed(payment)
        assert len(adversary.recorded) == 6
        nodes = {"alice": alice, "bob": bob}
        for message in adversary.recorded:
            assert_rejected(nodes[message.destination], message.sender,
                            message.payload, MessageAuthenticationError)

    def test_envelope_from_a_retired_session_rejected(self, open_channel):
        """*Pin.*  A frame sealed before ``reinstall_secure_channel`` is
        under keys the receiver no longer holds."""
        network, alice, bob, channel = open_channel
        stale = secure_to(alice, bob).seal_message(
            Paid(channel_id=channel, amount=100, sequence=1))
        renew_secure_session(alice, bob, b"second boot")
        assert_rejected(bob, "alice", stale, MessageAuthenticationError)
        alice.pay(channel, 100)  # the renewed session carries on
        assert bob.channel_balance(channel) == (30_100, 49_900)

    def test_bit_flipped_envelope_rejected(self, open_channel):
        """*Pin.*"""
        network, alice, bob, channel = open_channel
        envelope = bytearray(secure_to(alice, bob).seal_message(
            Paid(channel_id=channel, amount=100, sequence=1)))
        for position in (0, len(envelope) // 2, len(envelope) - 1):
            flipped = bytearray(envelope)
            flipped[position] ^= 0x01
            assert_rejected(bob, "alice", bytes(flipped),
                            MessageAuthenticationError)
        bob.program.handle_envelope("alice", bytes(envelope))  # intact: ok


class TestSenderIsTheChannelKey:
    """Carol holds a valid secure channel with bob, so her frames
    authenticate — as carol.  Naming the alice–bob channel gets her
    nowhere: every handler compares the channel's peer key with the
    secure channel the frame arrived on.  The parent refuses the same
    frames one step earlier (a bare non-``Paid`` never dispatched), so
    there these tests fail on the exception class alone; the handler
    guards pinned here now stand on their own."""

    def test_cross_channel_alg1_messages_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        secure = secure_to(carol, bob)
        assert_rejected(bob, "carol",
                        secure.seal_message(SettleRequest(channel_id=ab)),
                        SettlementError)
        assert_rejected(bob, "carol",
                        secure.seal_message(
                            Paid(channel_id=ab, amount=1, sequence=1)),
                        PaymentError)

    def test_cross_channel_lock_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        path = PathDescriptor(payment_id="forged", amount=100,
                              hops=("carol", "bob", "alice"))
        lock = MultihopLock(path=path, channel_ids=(ab,), tau_deposits=(),
                            tau_payouts=(), pre_settlement_txids=("x",),
                            post_settlement_txids=("y",))
        assert_rejected(bob, "carol",
                        secure_to(carol, bob).seal_message(lock),
                        MultihopError)

    def test_cross_channel_stage_message_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        adversary = NetworkAdversary(network.transport)
        adversary.partition("bob", "alice")  # bob's sign never arrives
        alice.pay_multihop([alice, bob, carol], 1_000)
        (session,) = bob.program.multihop_sessions.values()
        assert session.stage is MultihopStage.SIGN
        # Bob now waits for alice's preUpdate; carol supplies one.
        forged = MultihopPreUpdate(path=session.path, tau=None)
        assert_rejected(bob, "carol",
                        secure_to(carol, bob).seal_message(forged),
                        MultihopError)

    def test_abort_from_off_path_or_upstream_rejected(self, three_hop_path):
        """Fails on the parent, where ``_handle_abort`` was the one Alg. 2
        handler without a peer check: dave, attested to bob but on no
        channel of the payment, released bob's lock-phase locks by
        naming the payment id.  Aborts travel n→1, so alice (upstream)
        may not send one either; carol's stands."""
        network, alice, bob, carol, ab, bc = three_hop_path
        dave = network.create_node("dave", funds=10_000)
        dave.open_channel(bob)
        NetworkAdversary(network.transport).partition("bob", "carol")
        payment = alice.pay_multihop([alice, bob, carol], 1_000)
        session = bob.program.multihop_sessions[payment]
        assert session.stage is MultihopStage.LOCK
        abort = MultihopAbort(path=session.path, reason="griefing")
        for intruder in (dave, alice):
            assert_rejected(bob, intruder.name,
                            secure_to(intruder, bob).seal_message(abort),
                            MultihopError)
        bob.program.handle_envelope(
            "carol", secure_to(carol, bob).seal_message(abort))
        assert payment in bob.program.multihop_aborted
        assert bob.program.channels[ab].stage is MultihopStage.IDLE


class TestSignedArtefactPolicy:
    def test_bare_checkpoint_rejected(self, open_channel):
        """*Pin.*  A checkpoint exists to carry the signature."""
        network, alice, bob, channel = open_channel
        bare = ChannelCheckpoint(channel_id=channel, index=1, sequence_out=0,
                                 sequence_in=0, my_balance=50_000,
                                 remote_balance=30_000)
        assert_rejected(bob, "alice",
                        secure_to(alice, bob).seal_message(bare),
                        ProtocolError)

    def test_artefact_signed_by_another_key_rejected(self, open_channel):
        """*Pin.*  Sealed by alice's enclave, signed by someone else."""
        network, alice, bob, channel = open_channel
        mallory = KeyPair.from_seed(b"mallory")
        for body in (Paid(channel_id=channel, amount=100, sequence=1),
                     ChannelCheckpoint(channel_id=channel, index=1,
                                       sequence_out=0, sequence_in=0,
                                       my_balance=50_000,
                                       remote_balance=30_000)):
            signed = SignedMessage.create(body, mallory.private)
            assert_rejected(bob, "alice",
                            secure_to(alice, bob).seal_message(signed),
                            MessageAuthenticationError)

    def test_signed_wrapper_around_a_non_artefact_rejected(self, open_channel):
        """Fails on the parent, which accepts any signed body: only
        checkpoints and payments are signed artefacts, so a signature
        around anything else is a frame no honest enclave produces."""
        network, alice, bob, channel = open_channel
        signed = SignedMessage.create(SettleRequest(channel_id=channel),
                                      alice.enclave.identity.private)
        assert_rejected(bob, "alice",
                        secure_to(alice, bob).seal_message(signed),
                        ProtocolError)

    def test_remote_checkpoint_stays_verifiable(self, open_channel):
        """Fails on the parent, which kept the checkpoint body and threw
        the signature away: after a seal/restore round trip, someone
        holding only alice's public key verifies what bob stored."""
        network, alice, bob, channel = open_channel
        store = PersistentStore(bob.enclave, network.scheduler)
        store.attach()
        alice._ecall("set_fastpath", True, 3)
        for _ in range(3):
            alice.pay(channel, 1_000)
        restored = Enclave(TeechainEnclave(), name="bob-restored",
                           seed=b"enclave:bob")
        store.restore(restored)
        evidence = restored.program._remote_checkpoints[channel]
        alice_key = PublicKey.from_bytes(alice.enclave.public_key.to_bytes())
        evidence.verify(expected_sender=alice_key)
        assert (evidence.body.sequence_out, evidence.body.my_balance,
                evidence.body.remote_balance) == (3, 47_000, 33_000)
        tampered = SignedMessage(
            body=ChannelCheckpoint(**{**vars(evidence.body),
                                      "my_balance": 1}),
            sender_key=evidence.sender_key, signature=evidence.signature)
        with pytest.raises(MessageAuthenticationError):
            tampered.verify(expected_sender=alice_key)


class TestOperationCounts:
    """Counts, not timings: a change that quietly re-signs stage
    messages, or signs a settlement nobody asked to broadcast, fails
    here."""

    @staticmethod
    def _crypto(counters):
        return {name: counters.get(f"crypto.{name}", 0)
                for name in ("sign", "verify", "mac_fastpath")}

    def test_three_hop_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        frames = []
        network.transport.add_tap(lambda m: frames.append(m) or True)
        with obs.collecting() as (registry, _tracer):
            payment = alice.pay_multihop([alice, bob, carol], 1_000)
            counters = registry.snapshot()["counters"]
        assert alice.multihop_completed(payment)
        # One τ input per deposit, signed by the channel's upstream
        # endpoint; candidate settlements stay unsigned unless someone
        # ejects; no message is signed or verified.
        assert self._crypto(counters) == {
            "sign": 2, "verify": 0, "mac_fastpath": 12}
        assert len(frames) == 12
        # Both channels funded from both sides: four τ inputs.
        bob.approve_and_associate(alice, bob.create_deposit(10_000), ab)
        carol.approve_and_associate(bob, carol.create_deposit(10_000), bc)
        with obs.collecting() as (registry, _tracer):
            payment = alice.pay_multihop([alice, bob, carol], 1_000)
            counters = registry.snapshot()["counters"]
        assert alice.multihop_completed(payment)
        assert self._crypto(counters) == {
            "sign": 4, "verify": 0, "mac_fastpath": 12}

    def test_signed_and_fast_path_pay(self, open_channel):
        network, alice, bob, channel = open_channel
        with obs.collecting() as (registry, _tracer):
            alice.pay(channel, 100)
            counters = registry.snapshot()["counters"]
        assert self._crypto(counters) == {
            "sign": 1, "verify": 1, "mac_fastpath": 0}
        alice._ecall("set_fastpath", True, 64)
        with obs.collecting() as (registry, _tracer):
            alice.pay(channel, 100)
            counters = registry.snapshot()["counters"]
        assert self._crypto(counters) == {
            "sign": 0, "verify": 0, "mac_fastpath": 1}
