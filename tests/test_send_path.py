"""The single authenticated send path (DESIGN.md §11).

Alg. 1 and 2 messages travel bare under the attested secure channel;
the sender is the channel's pinned key.  No message on that channel
carries an identity signature — a ``Paid`` included — and a signed one
is refused.  Each reject test asserts that neither protocol state nor
the outbox moved.

Against the parent commit (every envelope ECDSA-signed): the tests
marked *pin* pass there too — they pin a reject the MAC path must keep;
the rest fail there for the reason their docstring gives.
"""

import pytest

from repro import obs
from repro.core.messages import (
    MultihopAbort,
    MultihopLock,
    MultihopPreUpdate,
    Paid,
    PathDescriptor,
    SettleRequest,
    SignedMessage,
)
from repro.core.node import TeechainNetwork
from repro.core.state import MultihopStage
from repro.crypto.keys import KeyPair
from repro.errors import (
    ChannelStateError,
    MessageAuthenticationError,
    MultihopError,
    PaymentError,
    ProtocolError,
    SettlementError,
)
from repro.network import NetworkAdversary

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

    def test_replayed_bare_paid_rejected(self, open_channel):
        """*Pin.*  The secure channel's freshness counters guard the bare
        ``Paid``: a captured envelope credits once."""
        network, alice, bob, channel = open_channel
        envelope = secure_to(alice, bob).seal_message(
            Paid(channel_id=channel, amount=100, sequence=1))
        bob.program.handle_envelope("alice", envelope)
        assert bob.channel_balance(channel) == (30_100, 49_900)
        assert_rejected(bob, "alice", envelope, MessageAuthenticationError)


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
    """Nothing on the secure channel is a signed artefact: a
    ``SignedMessage`` there has no ``_HANDLERS`` row, whoever signed it
    and whatever it wraps."""

    def test_artefact_signed_by_another_key_rejected(self, open_channel):
        """Sealed by alice's enclave, signed by someone else.  The parent
        refuses it too, one step later: it verified the signature
        (``MessageAuthenticationError``); here the wrapper is refused
        unread."""
        network, alice, bob, channel = open_channel
        mallory = KeyPair.from_seed(b"mallory")
        signed = SignedMessage.create(
            Paid(channel_id=channel, amount=100, sequence=1), mallory.private)
        assert_rejected(bob, "alice",
                        secure_to(alice, bob).seal_message(signed),
                        ProtocolError)

    def test_signed_wrapper_around_a_non_artefact_rejected(self, open_channel):
        """Fails on the parent, which dispatched a ``Paid`` signed by its
        sender: a signature around any message — a payment or a control
        message — is a frame no honest enclave produces.  The bare
        message dispatches."""
        network, alice, bob, channel = open_channel
        secure = secure_to(alice, bob)
        for body in (Paid(channel_id=channel, amount=100, sequence=1),
                     SettleRequest(channel_id=channel)):
            signed = SignedMessage.create(body,
                                          alice.enclave.identity.private)
            assert_rejected(bob, "alice", secure.seal_message(signed),
                            ProtocolError)
        bob.program.handle_envelope(
            "alice", secure.seal_message(SettleRequest(channel_id=channel)))
        assert bob.program.channels[channel].settling_offchain


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
        """The signed pay and the fast-path pay are now one and the same:
        a bare ``Paid``, one MAC'd frame, no signature and no verify.
        Fails on the parent, where a pay signed its ``Paid`` unless the
        fast path was switched on."""
        network, alice, bob, channel = open_channel
        frames = []
        network.transport.add_tap(lambda m: frames.append(m) or True)
        with obs.collecting() as (registry, _tracer):
            alice.pay(channel, 100)
            counters = registry.snapshot()["counters"]
        assert self._crypto(counters) == {
            "sign": 0, "verify": 0, "mac_fastpath": 1}
        assert len(frames) == 1


def lose_secure_channel(node, peer):
    """What a restored enclave holds before its peer re-handshakes:
    channels and deposits, but no secure channel."""
    node.program.secure_channels.pop(peer.enclave.public_key.to_bytes())


class TestNothingMovesBeforeTheSecureChannel:
    """Fails on the parent, where ``pay`` and ``associate_deposit``
    moved funds and only then found no secure channel to send on: the
    sender was debited, no ``Paid`` left, and every later one was out of
    sequence at the peer."""

    def test_pay_without_a_secure_channel_moves_nothing(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 10)
        lose_secure_channel(alice, bob)
        before = fingerprint(alice)
        with pytest.raises(ChannelStateError):
            alice.enclave.ecall("pay", channel, 1_000)
        assert fingerprint(alice) == before
        assert alice.program._outbox == []
        renew_secure_session(alice, bob, b"after restore")
        alice.pay(channel, 1_000)
        assert alice.channel_balance(channel) == (48_990, 31_010)
        assert bob.channel_balance(channel) == (31_010, 48_990)
        assert bob.program._pay_seq_in[channel] == 2

    def test_associate_without_a_secure_channel_moves_nothing(
            self, open_channel):
        network, alice, bob, channel = open_channel
        record = alice.create_deposit(5_000)
        alice.approve_deposit(bob, record)
        lose_secure_channel(alice, bob)
        before = fingerprint(alice)
        with pytest.raises(ChannelStateError):
            alice.enclave.ecall("associate_deposit", channel,
                                record.outpoint)
        assert fingerprint(alice) == before
        assert alice.program.deposits[record.outpoint].is_free
        renew_secure_session(alice, bob, b"after restore")
        alice.associate_deposit(channel, record)
        assert bob.channel_balance(channel) == (30_000, 55_000)


# ---------------------------------------------------------------------------
# Bare payments settle exactly
# ---------------------------------------------------------------------------

def bare_pays(payments):
    """Run ``(payer, channel, amount)`` pays; no pay signs or verifies
    anything, and each is one MAC-only frame."""
    with obs.collecting() as (registry, _tracer):
        for payer, channel, amount in payments:
            payer.pay(channel, amount)
        counters = registry.snapshot()["counters"]
    assert counters.get("crypto.sign", 0) == 0
    assert counters.get("crypto.verify", 0) == 0
    assert counters["crypto.mac_fastpath"] == len(payments)


def both_ways(left, right, channel, rounds=12):
    """Alternating pays; returns left's net gain."""
    payments, net = [], 0
    for index in range(rounds):
        forward = (left, channel, 300 + 7 * index)
        back = (right, channel, 100 + 5 * index)
        payments += [forward, back]
        net += back[2] - forward[2]
    bare_pays(payments)
    return net


def whole(network, nodes, expected):
    """Everything reclaimed on chain: each wallet holds exactly what it
    started with plus its net, and the chain conserves value."""
    for node in nodes:
        node.reclaim_all()
    for node in nodes:
        assert network.chain.balance(node.address) == expected[node.name]
    assert network.chain.utxos.total_value() == network.chain.total_minted()


class TestBarePaymentsSettleExactly:
    """Fails on the parent, where a ``Paid`` with the fast path off was
    signed and verified: N bare pays in both directions, nothing signed
    beside them, then each ending pays everyone out to the unit."""

    def test_cooperative_settle(self, open_channel):
        network, alice, bob, channel = open_channel
        net = both_ways(alice, bob, channel)
        assert alice.channel_balance(channel) == (50_000 + net, 30_000 - net)
        assert bob.channel_balance(channel) == (30_000 - net, 50_000 + net)
        settlement = alice.settle(channel)
        assert sorted(output.value for output in settlement.outputs) == \
            sorted((50_000 + net, 30_000 - net))
        assert bob.program.channels[channel].terminated
        network.mine()
        whole(network, (alice, bob),
              {"alice": 100_000 + net, "bob": 100_000 - net})

    def test_eject_then_unilateral_settle(self, three_hop_path):
        """A multi-hop payment stalls mid-stream at bob's lock; bob ejects
        both channels at the bare-pay balances, and carol — never locked
        — settles hers unilaterally to the very same transaction."""
        network, alice, bob, carol, ab, bc = three_hop_path
        net_ab = both_ways(alice, bob, ab)
        net_bc = both_ways(bob, carol, bc)
        NetworkAdversary(network.transport).drop_after("bob", "carol", 0)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        ejected = {tx.txid: tx for tx in bob.eject(payment)}
        assert len(ejected) == 2
        settlement = carol._ecall("unilateral_settlement", bc)
        assert settlement.txid in ejected
        assert sorted(o.value for o in settlement.outputs) == \
            sorted((40_000 + net_bc, -net_bc))
        network.mine()
        alice.eject(payment)
        network.mine()
        whole(network, (alice, bob, carol),
              {"alice": 100_000 + net_ab, "bob": 100_000 - net_ab + net_bc,
               "carol": 100_000 - net_bc})

    def test_committee_deposits_settle_co_signed(self):
        """The ``committee_inproc`` shape: both ends on a 3-member chain
        with 2-of-3 deposits; the members co-sign the settlement."""
        network = TeechainNetwork()
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        for node in (alice, bob):
            node.attach_committee(backups=2, threshold=2)
        channel = alice.open_channel(bob)
        for node, peer in ((alice, bob), (bob, alice)):
            node.approve_and_associate(peer, node.create_deposit(40_000),
                                       channel)
        net = both_ways(alice, bob, channel)
        for node in (alice, bob):
            for member in node.replication.members:
                state = member.program.state["channels"][channel]
                assert (state.my_balance, state.remote_balance) == \
                    node.channel_balance(channel)
        settlement = alice.settle(channel)
        assert len(settlement.inputs) == 2
        network.mine()
        whole(network, (alice, bob),
              {"alice": 100_000 + net, "bob": 100_000 - net})
