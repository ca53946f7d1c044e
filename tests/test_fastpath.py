"""The fast path is the only path: every ``Paid`` is one bare frame.

A payment travels as a bare ``Paid`` over the attested secure channel,
which authenticates it (Alg. 1, lines 82–89); no payment is signed and
no signed checkpoint follows.  These tests pin that bare payments move
balances exactly, in both directions and through a settlement, without a
single identity signature, and that a signature wrapped around a message
on the secure channel is refused rather than dispatched.
"""

import pytest

from repro import obs
from repro.core.messages import SettleRequest, SignedMessage
from repro.errors import ProtocolError


class TestFastPathPayments:
    def test_payments_update_balances(self, open_channel):
        network, alice, bob, channel = open_channel
        for _ in range(5):
            alice.pay(channel, 1_000)
        assert alice.program.channels[channel].my_balance == 45_000
        assert bob.program.channels[channel].my_balance == 35_000

    def test_settle_flushes_and_conserves_exactly(self, open_channel):
        """Nothing is left to flush before a settle: every bare ``Paid``
        already moved both sides' state, so the on-chain payouts are
        exact, not approximate."""
        network, alice, bob, channel = open_channel
        for _ in range(7):
            alice.pay(channel, 1_000)
        transaction = alice.settle(channel)
        assert transaction is not None
        network.mine()
        assert network.chain.balance(alice.address) == 100_000 - 50_000 + 43_000
        assert network.chain.balance(bob.address) == 100_000 - 30_000 + 37_000

    def test_bidirectional_fastpath(self, open_channel):
        network, alice, bob, channel = open_channel
        for _ in range(6):
            alice.pay(channel, 500)
        for _ in range(3):
            bob.pay(channel, 200)
        assert alice.program.channels[channel].my_balance == 47_600
        assert bob.program.channels[channel].my_balance == 32_400

    def test_sign_count_amortised(self, open_channel):
        """Amortised all the way to zero: ten payments, ten MAC'd frames,
        no signature on either side."""
        network, alice, bob, channel = open_channel
        with obs.collecting() as (registry, _tracer):
            for _ in range(10):
                alice.pay(channel, 100)
            snapshot = registry.snapshot()["counters"]
        assert snapshot["crypto.mac_fastpath"] == 10
        assert snapshot.get("crypto.sign", 0) == 0
        assert snapshot.get("crypto.verify", 0) == 0


class TestFastPathSecurity:
    def _seal_from(self, sender, payload):
        state = next(iter(sender.program.channels.values()))
        secure = sender.program.secure_channels[state.remote_key.to_bytes()]
        return secure.seal_message(payload)

    def test_signature_is_for_artefacts_not_envelopes(self, open_channel):
        """The secure channel authenticates every message, so a control
        message dispatches bare, while a signature around one is refused.
        The signed-``Paid`` and wrong-signer rejects are in
        test_send_path.py."""
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
