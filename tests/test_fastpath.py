"""Session-MAC fast path: deferred signatures under checkpoints.

With the fast path enabled, ``Paid`` messages carry no signature of
their own; the identity *signature* over channel state is amortised into
a signed :class:`~repro.core.messages.ChannelCheckpoint` every K payments
and forced before any balance-affecting reconfiguration.  These tests
pin the protocol rules: checkpoint cadence, forced flushes, receiver-side
validation, and which bodies may (and must) arrive signed.
"""

import asyncio
import time

import pytest

from repro import obs
from repro.core.channel_base import replication_state
from repro.core.messages import ChannelCheckpoint, Paid, SettleRequest, \
    SignedMessage
from repro.core.persistence import restore_program_state
from repro.errors import PaymentError, ProtocolError
from repro.runtime import codec
from repro.runtime.daemon import NodeDaemon


def enable_fastpath(node, every):
    node._ecall("set_fastpath", True, every)


class TestFastPathPayments:
    def test_payments_update_balances(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 8)
        for _ in range(5):
            alice.pay(channel, 1_000)
        assert alice.program.channels[channel].my_balance == 45_000
        assert bob.program.channels[channel].my_balance == 35_000

    def test_checkpoint_every_k_payments(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 5)
        for _ in range(12):
            alice.pay(channel, 100)
        # 12 payments at K=5 → checkpoints after the 5th and 10th, two
        # payments still awaiting the next one.
        assert alice.program._checkpoint_index_out[channel] == 2
        assert alice.program._fastpath_unsigned[channel] == 2
        assert bob.program._checkpoint_index_in[channel] == 2
        recorded = bob.program._remote_checkpoints[channel].body
        assert recorded.sequence_out == 10
        assert recorded.my_balance == 49_000

    def test_disable_flushes_pending(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 50)
        for _ in range(3):
            alice.pay(channel, 100)
        assert alice.program._fastpath_unsigned[channel] == 3
        alice._ecall("set_fastpath", False)
        assert alice.program._fastpath_unsigned[channel] == 0
        assert bob.program._remote_checkpoints[channel].body.sequence_out == 3

    def test_settle_flushes_and_conserves_exactly(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 100)
        for _ in range(7):
            alice.pay(channel, 1_000)
        assert alice.program._fastpath_unsigned[channel] == 7
        transaction = alice.settle(channel)
        assert transaction is not None
        network.mine()
        # The forced pre-settle checkpoint covered the unsigned tail; the
        # on-chain payouts are exact, not approximate.
        assert network.chain.balance(alice.address) == 100_000 - 50_000 + 43_000
        assert network.chain.balance(bob.address) == 100_000 - 30_000 + 37_000
        assert alice.program._fastpath_unsigned.get(channel, 0) == 0

    def test_bidirectional_fastpath(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 4)
        enable_fastpath(bob, 4)
        for _ in range(6):
            alice.pay(channel, 500)
        for _ in range(3):
            bob.pay(channel, 200)
        assert alice.program.channels[channel].my_balance == 47_600
        assert bob.program.channels[channel].my_balance == 32_400

    def test_sign_count_amortised(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 5)
        with obs.collecting() as (registry, _tracer):
            for _ in range(10):
                alice.pay(channel, 100)
            snapshot = registry.snapshot()["counters"]
        assert snapshot["crypto.mac_fastpath"] == 10
        assert snapshot["crypto.sign_deferred"] == 10
        assert snapshot["crypto.checkpoints_sent"] == 2
        # Only the two checkpoints are signed — far fewer signatures than
        # payments (the entire point of the fast path).
        assert snapshot["crypto.sign"] < 10

    def test_checkpoint_every_must_be_positive(self, open_channel):
        network, alice, bob, channel = open_channel
        with pytest.raises(PaymentError):
            alice._ecall("set_fastpath", True, 0)


class TestFastPathSecurity:
    def _seal_from(self, sender, payload):
        state = None
        for channel in sender.program.channels.values():
            state = channel
            break
        secure = sender.program.secure_channels[state.remote_key.to_bytes()]
        return secure.seal_message(payload)

    def test_signature_is_for_artefacts_not_envelopes(self, open_channel):
        """The whitelist inverted: the secure channel authenticates every
        message, so a control message dispatches bare (the parent refused
        it), while a signature around one is refused — only checkpoints
        and payments are signed artefacts.  The bare-checkpoint and
        wrong-signer rejects are in test_send_path.py."""
        network, alice, bob, channel = open_channel
        signed = SignedMessage.create(SettleRequest(channel_id=channel),
                                      alice.enclave.identity.private)
        with pytest.raises(ProtocolError):
            bob.program.handle_envelope("alice",
                                        self._seal_from(alice, signed))
        assert not bob.program.channels[channel].settling_offchain
        envelope = self._seal_from(alice, SettleRequest(channel_id=channel))
        bob.program.handle_envelope("alice", envelope)
        assert bob.program.channels[channel].settling_offchain

    def _signed_checkpoint(self, alice, checkpoint):
        signed = SignedMessage.create(checkpoint,
                                      alice.enclave.identity.private)
        return self._seal_from(alice, signed)

    def test_checkpoint_index_gap_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 100)
        for _ in range(3):
            alice.pay(channel, 100)
        forged = ChannelCheckpoint(channel_id=channel, index=5,
                                   sequence_out=3, sequence_in=0,
                                   my_balance=49_700, remote_balance=30_300)
        with pytest.raises(ProtocolError):
            bob.program.handle_envelope(
                "alice", self._signed_checkpoint(alice, forged))

    def test_checkpoint_sequence_mismatch_rejected(self, open_channel):
        """A checkpoint claiming payments the receiver never saw (a host
        dropping fast-path frames) fails the exact-sequence check."""
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 100)
        for _ in range(3):
            alice.pay(channel, 100)
        forged = ChannelCheckpoint(channel_id=channel, index=1,
                                   sequence_out=99, sequence_in=0,
                                   my_balance=40_100, remote_balance=39_900)
        with pytest.raises(PaymentError):
            bob.program.handle_envelope(
                "alice", self._signed_checkpoint(alice, forged))

    def test_checkpoint_balance_mismatch_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 100)
        for _ in range(3):
            alice.pay(channel, 100)
        # Quiescent (no reverse traffic), correct sequences, wrong money.
        forged = ChannelCheckpoint(channel_id=channel, index=1,
                                   sequence_out=3, sequence_in=0,
                                   my_balance=50_000, remote_balance=30_000)
        with pytest.raises(PaymentError):
            bob.program.handle_envelope(
                "alice", self._signed_checkpoint(alice, forged))

    def test_replayed_bare_paid_rejected(self, open_channel):
        """The secure channel's freshness counters still guard fast-path
        frames: a captured envelope cannot be delivered twice."""
        from repro.errors import MessageAuthenticationError
        network, alice, bob, channel = open_channel
        envelope = self._seal_from(
            alice, Paid(channel_id=channel, amount=100, sequence=1))
        bob.program.handle_envelope("alice", envelope)
        with pytest.raises(MessageAuthenticationError):
            bob.program.handle_envelope("alice", envelope)


class TestFastPathPersistence:
    def test_fastpath_state_round_trips_through_sealing(self, open_channel):
        network, alice, bob, channel = open_channel
        enable_fastpath(alice, 5)
        for _ in range(7):
            alice.pay(channel, 100)
        state = codec.decode(codec.encode(replication_state(alice.program)))
        assert state["fastpath"]["enabled"] is True
        assert state["fastpath"]["unsigned"][channel] == 2
        program = alice.program
        program.fastpath_enabled = False
        program.checkpoint_every = 64
        program._fastpath_unsigned = {}
        program._checkpoint_index_out = {}
        restore_program_state(program, state)
        assert program.fastpath_enabled is True
        assert program.checkpoint_every == 5
        assert program._fastpath_unsigned[channel] == 2
        assert program._checkpoint_index_out[channel] == 1


@pytest.mark.live
def test_checkpoint_timer_signs_fewer_than_k_payments():
    """With fewer than K payments in flight only the daemon's
    ``checkpoint_ms`` timer bounds how long they stay unsigned: two
    in-process daemons, K=64, T=50 ms, three pays — the peer must hold a
    signed checkpoint covering all three well within half a second."""
    async def scenario():
        funds = {"alice": 100_000, "bob": 100_000}
        alice = NodeDaemon("alice", allocations=funds)
        bob = NodeDaemon("bob", allocations=funds)
        await alice.start()
        await bob.start()
        try:
            await alice.connect("bob", bob.net.host, bob.net.port)
            await bob.connect("alice", alice.net.host, alice.net.port)
            channel = (await alice.open_channel("bob"))["channel_id"]
            deposit = await alice.deposit(10_000)
            await alice.approve_associate("bob", channel, deposit["txid"])
            await alice._cmd_fastpath(1, checkpoint_every=64,
                                      checkpoint_ms=50)
            for amount in (100, 200, 300):
                await alice.pay(channel, amount)
            held = bob.node.program._remote_checkpoints
            deadline = time.monotonic() + 0.5
            while channel not in held and time.monotonic() < deadline:
                await asyncio.sleep(0.005)
            assert channel in held, "no checkpoint within 0.5 s"
            checkpoint = held[channel].body
            assert isinstance(checkpoint, ChannelCheckpoint)
            assert (checkpoint.sequence_out, checkpoint.my_balance,
                    checkpoint.remote_balance) == (3, 9_400, 600)
        finally:
            await alice.stop()
            await bob.stop()

    with obs.collecting():  # NodeDaemon installs its own registry globally
        asyncio.run(scenario())
