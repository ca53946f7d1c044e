"""§6.2 stable storage and §3 TEE outsourcing."""

import tracemalloc

import pytest

from repro.blockchain.script import LockingScript
from repro.core.deposits import DepositRecord
from repro.core.multihop import TeechainEnclave
from repro.core.outsourcing import OutsourcedUser, OutsourcingGateway
from repro.core.persistence import PersistentStore
from repro.crypto.multisig import MultisigSpec
from repro.errors import (
    AttestationError,
    MessageAuthenticationError,
    SealingError,
)
from repro.tee import AttestationService, Enclave


@pytest.fixture
def persistent_pair(funded_pair):
    network, alice, bob = funded_pair
    store = PersistentStore(alice.enclave, network.scheduler)
    store.attach()
    channel = alice.open_channel(bob)
    deposit = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, deposit, channel)
    return network, alice, bob, channel, store


class TestPersistence:
    def test_every_mutation_seals(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        seals = store.seals_written
        alice.pay(channel, 100)
        assert store.seals_written == seals + 1

    def test_restore_recovers_state(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 7_000)
        fresh = Enclave(TeechainEnclave(), name="alice-restored",
                        seed=b"enclave:alice")
        store.restore(fresh)
        assert fresh.program.channels[channel].my_balance == 33_000
        assert fresh.program.payments_sent == alice.program.payments_sent

    def test_restored_state_can_settle(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 7_000)
        fresh = Enclave(TeechainEnclave(), name="alice-restored2",
                        seed=b"enclave:alice")
        store.restore(fresh)
        transaction = fresh.ecall("unilateral_settlement", channel)
        network.chain.submit(transaction)
        network.mine()
        assert network.chain.balance(alice.address) >= 93_000 - 60_000

    def test_rollback_blob_refused(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        alice.pay(channel, 1_000)
        old = store.latest_blob
        alice.pay(channel, 1_000)
        fresh = Enclave(TeechainEnclave(), seed=b"enclave:alice")
        with pytest.raises(SealingError):
            store.restore(fresh, blob=old)

    def test_sealing_keeps_no_old_blobs(self, persistent_pair):
        """A --state-dir daemon seals on every payment for as long as it
        runs, so a payment must leave nothing behind: the store keeps the
        latest blob only (each superseded one used to stay, ~1.8 KB a
        payment) and the in-memory transport keeps no delivered frames."""
        network, alice, bob, channel, store = persistent_pair
        for _ in range(20):  # warm the signing/verification caches
            alice.pay(channel, 1)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(1_000):
                alice.pay(channel, 1)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert store.seals_written >= 1_020
        assert after - before < 200_000

    def test_counter_throttle_serialises(self, persistent_pair):
        network, alice, bob, channel, store = persistent_pair
        start_completion = store.last_seal_completion
        for _ in range(5):
            alice.pay(channel, 10)
        # Five seals queued behind each other at 100 ms each.
        assert store.last_seal_completion == pytest.approx(
            start_completion + 0.5)

    def test_restore_without_state_rejected(self, network):
        node = network.create_node("lonely", funds=0)
        store = PersistentStore(node.enclave, network.scheduler)
        fresh = Enclave(TeechainEnclave(), seed=b"f")
        with pytest.raises(SealingError):
            store.restore(fresh)


class TestOutsourcing:
    def _gateway(self, network):
        gateway = Enclave(OutsourcingGateway(), name="gateway", seed=b"gw")
        user = OutsourcedUser("dave")
        user.attest(gateway, network.attestation)
        return gateway, user

    def test_attest_and_command(self, network):
        gateway, user = self._gateway(network)
        address, public = user.command("new_deposit_address")
        assert address.startswith("btc")
        assert address in gateway.program.deposit_keys

    def test_wrong_program_fails_attestation(self, network):
        plain = Enclave(TeechainEnclave(), name="not-a-gateway")
        user = OutsourcedUser("dave")
        with pytest.raises(AttestationError):
            user.attest(plain, network.attestation)

    def test_command_before_attestation_rejected(self, network):
        user = OutsourcedUser("dave")
        with pytest.raises(AttestationError):
            user.command("new_deposit_address")

    def test_replayed_command_rejected(self, network):
        gateway, user = self._gateway(network)
        envelope = user.make_envelope("list_channels")
        gateway.ecall("outsourced_command", envelope)
        with pytest.raises(MessageAuthenticationError):
            gateway.ecall("outsourced_command", envelope)

    def test_tampered_command_rejected(self, network):
        gateway, user = self._gateway(network)
        envelope = bytearray(user.make_envelope("list_channels"))
        envelope[40] ^= 1  # flip a body byte past the key prefix
        with pytest.raises(MessageAuthenticationError):
            gateway.ecall("outsourced_command", bytes(envelope))

    def test_unknown_user_rejected(self, network):
        gateway, _ = self._gateway(network)
        stranger = OutsourcedUser("mallory")
        stranger._secret = b"\x00" * 32  # self-provisioned garbage
        stranger._enclave = gateway
        with pytest.raises(MessageAuthenticationError):
            stranger.command("list_channels")

    def test_forbidden_command_rejected(self, network):
        gateway, user = self._gateway(network)
        with pytest.raises(MessageAuthenticationError):
            user.command("provision_user", user.keys.public)

    def test_pickled_command_body_is_refused_not_loaded(self, network):
        """Fails before the fix: the gateway MAC-checked the body and
        then ``pickle.loads``-ed it, so any *enrolled* user — not an
        outsider, the MAC is genuine — ran code of their choosing inside
        the enclave program."""
        import hashlib
        import hmac as hmac_mod
        import pickle
        gateway, user = self._gateway(network)
        fired = []

        class Payload:
            def __reduce__(self):
                return (fired.append, ("executed inside the enclave",))

        prefix = user.keys.public.to_bytes()
        body = pickle.dumps((1, "list_channels", (Payload(),)))
        tag = hmac_mod.new(user._secret, prefix + body,
                           hashlib.sha256).digest()
        with pytest.raises(MessageAuthenticationError):
            gateway.ecall("outsourced_command", prefix + body + tag)
        assert fired == []
        # Nothing ran, the replay counter included: the user's next
        # genuine command (counter 1) is still accepted.
        assert user.command("list_channels") == []

    def test_operator_cannot_forge_for_user(self, network):
        """The untrusted operator relays envelopes but cannot mint them."""
        import hashlib
        import hmac as hmac_mod
        from repro.runtime import codec
        gateway, user = self._gateway(network)
        prefix = user.keys.public.to_bytes()
        body = codec.encode((99, "new_deposit_address", ()))
        forged_tag = hmac_mod.new(b"operator-guess", prefix + body,
                                  hashlib.sha256).digest()
        with pytest.raises(MessageAuthenticationError):
            gateway.ecall("outsourced_command", prefix + body + forged_tag)

    def test_full_channel_lifecycle_outsourced(self, network):
        """Dave (no TEE) runs a channel on the operator's enclave against
        a regular node, settling to his *own* address."""
        gateway, user, bob = _outsourced_channel(network)

        # Fund via bob's side for brevity: bob deposits and pays dave.
        record = bob.create_deposit(20_000)
        bob.approve_deposit_gateway = None
        bob._ecall("approve_my_deposit", gateway.public_key, record.outpoint)
        _pump(network, gateway, "dave-gateway")
        bob._ecall("associate_deposit", "dave-bob", record.outpoint)
        _pump(network, gateway, "dave-gateway")
        bob._ecall("pay", "dave-bob", 6_000)
        _pump(network, gateway, "dave-gateway")

        transaction = user.command("unilateral_settlement", "dave-bob")
        network.chain.submit(transaction)
        network.mine()
        # Dave's 6,000 landed at DAVE's address, not the operator's.
        assert network.chain.balance(user.address) == 6_000

    def test_user_registers_and_associates_own_deposit(self, network):
        """Fails before DepositRecord had a wire form: the user's
        ``register_deposit`` command could not even be encoded
        (CodecError at the sender)."""
        gateway, user, bob = _outsourced_channel(network)
        _address, public = user.command("new_deposit_address")
        spec = MultisigSpec(1, (public,))
        funding = network.chain.mint(LockingScript.pay_to_multisig(spec),
                                     20_000)
        network.mine()
        record = DepositRecord(outpoint=funding.outpoint(0), value=20_000,
                               spec=spec)
        user.command("register_deposit", record)
        user.command("approve_my_deposit", bob.enclave.public_key,
                     record.outpoint)
        _pump(network, gateway, "dave-gateway")
        user.command("associate_deposit", "dave-bob", record.outpoint)
        _pump(network, gateway, "dave-gateway")
        assert user.command("channel_snapshot", "dave-bob")["my_balance"] \
            == 20_000
        assert bob.channel_balance("dave-bob") == (0, 20_000)


def _outsourced_channel(network):
    """Dave attests a gateway enclave the operator hosts and opens
    channel ``dave-bob`` on it with a regular node, bob."""
    network.create_node("operator", funds=0)
    bob = network.create_node("bob", funds=100_000)
    gateway = Enclave(OutsourcingGateway(), name="dave-gateway",
                      seed=b"dave-gw")
    user = OutsourcedUser("dave")
    user.attest(gateway, network.attestation)

    # Host-side wiring for the gateway enclave (the operator's job).
    from repro.network.secure_channel import establish_secure_channel
    ours, theirs = establish_secure_channel(
        gateway, bob.enclave, network.attestation,
        # The gateway expects a Teechain peer; bob expects a gateway.
        expected_measurement_a=TeechainEnclave.measurement(),
        expected_measurement_b=OutsourcingGateway.measurement(),
    )
    network.transport.register(
        "dave-gateway",
        lambda m: (gateway.ecall("handle_envelope", m.sender, m.payload),
                   _pump(network, gateway, "dave-gateway")))
    gateway.ecall("install_secure_channel", ours, "bob")
    bob._ecall("install_secure_channel", theirs, "dave-gateway")
    # The operator's host wires the gateway's blockchain validator.
    gateway.program.deposit_validator = (
        lambda outpoint, depth:
        network.chain.confirmations(outpoint.txid) >= depth)

    # Both sides create the channel before either acknowledgement is
    # pumped (same ordering the node layer uses).
    user.command("new_pay_channel", "dave-bob",
                 bob.enclave.public_key, bob.address, user.address)
    bob.enclave.ecall("new_pay_channel", "dave-bob",
                      gateway.public_key, user.address, bob.address)
    bob._pump()
    _pump(network, gateway, "dave-gateway")
    return gateway, user, bob


def _pump(network, enclave, name):
    for outbound in enclave.take_outbox():
        network.transport.send(name, outbound.destination, outbound.payload)
