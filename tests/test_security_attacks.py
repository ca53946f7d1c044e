"""Executable attacks from the paper's threat model (§2.4, §7.1), each
asserted to fail against Teechain — plus the LN contrast attack that
motivates the whole system."""

import pytest

from repro.baselines import LightningChannel
from repro.blockchain import Blockchain, LockingScript
from repro.core.messages import (
    MultihopLock,
    Paid,
    PathDescriptor,
    SignedMessage,
)
from repro.crypto import KeyPair
from repro.errors import (
    AccountFundsError,
    AccountNonceError,
    DoubleSpend,
    LedgerTamperError,
    MessageAuthenticationError,
    MultihopError,
    PaymentError,
)
from repro.hub.messages import AccountDeposit, AccountPay, AccountWithdraw
from repro.network import NetworkAdversary
from repro.obs import MetricsRegistry, set_metrics
from repro.runtime.registry import code_for_exception
from repro.tee import extract_secrets, fork_enclave

from tests.test_send_path import assert_rejected, secure_to


class TestMessageAttacks:
    def test_replayed_payment_rejected(self, open_channel):
        """Replaying a 'paid' message must not credit twice."""
        network, alice, bob, channel = open_channel
        adversary = NetworkAdversary(network.transport)
        adversary.record("alice", "bob")
        alice.pay(channel, 1_000)
        balance_after_one = bob.channel_balance(channel)
        adversary.replay_all()  # secure channel rejects, node logs it
        assert bob.channel_balance(channel) == balance_after_one

    def test_forged_payment_rejected(self, open_channel):
        """An attacker who knows the channel id but not the enclave key
        cannot inject payments."""
        network, alice, bob, channel = open_channel
        mallory = KeyPair.from_seed(b"mallory")
        forged = SignedMessage.create(
            Paid(channel_id=channel, amount=40_000, sequence=1),
            mallory.private,
        )
        with pytest.raises(MessageAuthenticationError):
            forged.verify(expected_sender=alice.enclave.public_key)
        # On the wire it cannot even be sealed without the channel keys;
        # injecting garbage bytes fails authentication outright.
        with pytest.raises(MessageAuthenticationError):
            bob.program.handle_envelope("alice", b"\x00" * 64)

    def test_out_of_order_payment_sequence_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        state = alice.program.channels[channel]
        # Craft a payment with a skipped sequence number, properly sealed
        # (a compromised host reordering enclave output).
        secure = alice.program.secure_channels[state.remote_key.to_bytes()]
        envelope = secure.seal_message(
            Paid(channel_id=channel, amount=1, sequence=5))
        with pytest.raises(PaymentError):
            bob.program.handle_envelope("alice", envelope)


class TestNoPaymentWithoutAnEcall:
    """None of the fifteen hand-written sender guards covered it:
    ``_handle_lock`` checked its sender only ``if position > 1``; the
    position-1 branch exists for ``pay_multihop``'s local call.  A lock
    from the wire that placed the receiver first made bob pay carol
    5 000 out of ``bc`` with no ecall from bob's host."""

    @pytest.fixture
    def with_dave(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        dave = network.create_node("dave", funds=10_000)
        return network, bob, dave, dave.open_channel(bob), bc

    @staticmethod
    def lock(hops, channel_ids):
        return MultihopLock(
            path=PathDescriptor(payment_id="unasked", amount=5_000,
                                hops=hops),
            channel_ids=channel_ids, tau_deposits=(), tau_payouts=(),
            pre_settlement_txids=("x",) * len(channel_ids),
            post_settlement_txids=("y",) * len(channel_ids))

    def refused(self, with_dave, lock):
        network, bob, dave, db, bc = with_dave
        assert_rejected(bob, "dave", secure_to(dave, bob).seal_message(lock),
                        MultihopError)
        bob._pump()
        network.run()
        assert bob.channel_balance(bc) == (40_000, 0)
        assert not bob.program.multihop_completed
        assert not bob.program.multihop_sessions

    def test_lock_naming_no_channel(self, with_dave):
        self.refused(with_dave, self.lock(("bob", "carol"), ()))

    def test_lock_over_the_senders_own_channel_at_position_one(self,
                                                                with_dave):
        db = with_dave[3]
        self.refused(with_dave, self.lock(("bob", "carol"), (db,)))

    def test_lock_whose_channel_count_disagrees_with_the_position(
            self, with_dave):
        db = with_dave[3]
        self.refused(with_dave,
                     self.lock(("dave", "bob", "carol"), ("elsewhere", db)))
        self.refused(with_dave, self.lock(("dave", "carol"), (db,)))


class TestTEECompromise:
    def test_forked_enclave_cannot_double_settle(self, open_channel):
        """State forking: settle once from the fork, once from the
        original — the chain accepts only one."""
        network, alice, bob, channel = open_channel
        alice.pay(channel, 10_000)
        fork = fork_enclave(alice.enclave, "fork")
        alice.pay(channel, 10_000)
        fork_settlement = fork.ecall("unilateral_settlement", channel)
        network.chain.submit(fork_settlement)
        network.mine()
        real_settlement = alice._ecall("unilateral_settlement", channel)
        with pytest.raises(DoubleSpend):
            network.chain.submit(real_settlement)
        # Even under the fork, bob's on-chain payout reflects at least the
        # pre-fork payments — the fork cannot *decrease* what bob already
        # received before the snapshot.
        assert network.chain.balance(bob.address) >= 100_000 - 30_000 + 10_000

    def test_extracted_keys_cannot_beat_committee(self, network):
        """A 2-of-3 committee deposit survives full compromise of the
        primary: the stolen key alone is below threshold."""
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        alice.attach_committee(backups=2, threshold=2)
        channel = alice.open_channel(bob)
        deposit = alice.create_deposit(40_000)
        alice.approve_and_associate(bob, deposit, channel)
        secrets = extract_secrets(alice.enclave)
        alice.pay(channel, 10_000)
        # Attacker crafts a theft spend and signs with every stolen key.
        from repro.blockchain.transaction import Transaction, TxInput, TxOutput
        from repro.blockchain.script import Witness
        theft_unsigned = Transaction(
            inputs=(TxInput(deposit.outpoint),),
            outputs=(TxOutput(40_000,
                              LockingScript.pay_to_address("btcthief")),),
        )
        digest = theft_unsigned.sighash()
        stolen_keys = list(secrets.program_state["deposit_keys"].values())
        signatures = tuple(key.sign(digest) for key in stolen_keys)
        theft = theft_unsigned.with_witnesses([Witness(signatures=signatures)])
        from repro.errors import InvalidTransaction
        with pytest.raises(InvalidTransaction):
            network.chain.submit(theft)  # 1 valid signature < threshold 2


class TestHubAccountAttacks:
    """RouTEE-model attacks on the account hub (DESIGN.md §12): the
    host and control plane are untrusted couriers, so every forged,
    replayed, or tampered request must die inside the enclave with a
    stable error code and a counted rejection."""

    @pytest.fixture
    def hub(self, open_channel):
        """Alice's enclave as the hub (50k channel backing), one funded
        client account, and a fresh metrics registry."""
        network, alice, bob, channel = open_channel
        registry = MetricsRegistry()
        previous = set_metrics(registry)
        client = KeyPair.from_seed(b"hub-client")
        alice.enclave.ecall(
            "hub_handle_request",
            SignedMessage.create(AccountDeposit(client.public, 10_000, 1),
                                 client.private))
        yield alice, client, registry
        set_metrics(previous)

    def test_forged_signature_rejected(self, hub):
        """A request signed by anyone but the named account holder is
        refused before any state is read."""
        alice, client, registry = hub
        mallory = KeyPair.from_seed(b"hub-mallory")
        forged = SignedMessage.create(
            AccountWithdraw(client.public, 10_000, 2), mallory.private)
        with pytest.raises(MessageAuthenticationError) as excinfo:
            alice.enclave.ecall("hub_handle_request", forged)
        assert code_for_exception(excinfo.value) == "authentication_failed"
        assert registry.counter("hub.rejected_sigs").value == 1
        assert alice.program.hub.balances[client.public.to_bytes()] == 10_000

    def test_replayed_nonce_rejected(self, hub):
        """Resubmitting an accepted request (or any nonce at or below
        the last accepted one) is a no-op with a stable code."""
        alice, client, registry = hub
        replay = SignedMessage.create(
            AccountDeposit(client.public, 10_000, 1), client.private)
        with pytest.raises(AccountNonceError) as excinfo:
            alice.enclave.ecall("hub_handle_request", replay)
        assert code_for_exception(excinfo.value) == "stale_nonce"
        assert registry.counter("hub.rejected_nonces").value == 1
        assert alice.program.hub.deposited_total == 10_000  # not doubled

    def test_host_balance_tamper_detected(self, hub):
        """A host that edits the ledger out-of-band is caught by the
        conservation check before the next mutation is applied."""
        alice, client, registry = hub
        alice.program.hub.balances[client.public.to_bytes()] += 5_000
        request = SignedMessage.create(
            AccountDeposit(client.public, 100, 2), client.private)
        with pytest.raises(LedgerTamperError) as excinfo:
            alice.enclave.ecall("hub_handle_request", request)
        assert code_for_exception(excinfo.value) == "ledger_tampered"
        assert registry.counter("hub.rejected_tamper").value == 1

    def test_over_withdraw_rejected(self, hub):
        alice, client, registry = hub
        request = SignedMessage.create(
            AccountWithdraw(client.public, 10_001, 2), client.private)
        with pytest.raises(AccountFundsError) as excinfo:
            alice.enclave.ecall("hub_handle_request", request)
        assert code_for_exception(excinfo.value) == "account_insufficient"
        assert registry.counter("hub.rejected_funds").value == 1
        assert alice.program.hub.balances[client.public.to_bytes()] == 10_000

    def test_spliced_account_key_rejected(self, hub):
        """Mallory cannot spend the victim's balance by naming it in a
        request signed with her own (registered) key."""
        alice, client, registry = hub
        mallory = KeyPair.from_seed(b"hub-mallory")
        alice.enclave.ecall(
            "hub_handle_request",
            SignedMessage.create(AccountDeposit(mallory.public, 1_000, 1),
                                 mallory.private))
        spliced = SignedMessage.create(
            AccountPay(client.public, mallory.public, 9_000, 2),
            mallory.private)
        with pytest.raises(MessageAuthenticationError):
            alice.enclave.ecall("hub_handle_request", spliced)
        assert registry.counter("hub.rejected_sigs").value == 1
        assert alice.program.hub.balances[client.public.to_bytes()] == 10_000


class TestAsynchronyContrast:
    def test_lightning_theft_with_censorship(self):
        """The attack that breaks synchronous payment networks."""
        chain = Blockchain()
        alice = KeyPair.from_seed(b"sync-a")
        bob = KeyPair.from_seed(b"sync-b")
        coinbase = chain.mint(LockingScript.pay_to_address(alice.address()),
                              100_000)
        chain.mine_block()
        channel = LightningChannel(chain, alice, bob, 60_000, 0,
                                   justice_window_blocks=3)
        channel.open([(coinbase.outpoint(0), 100_000)], alice)
        for _ in range(6):
            chain.mine_block()
        stale = channel.current
        channel.pay(from_a=True, amount=20_000)
        channel.broadcast_state(stale)
        for _ in range(5):
            chain.mine_block()  # justice censored past the window
        assert channel.theft_succeeded(stale)

    def test_lightning_justice_in_time(self):
        """With synchrony intact, LN is safe — the contrast baseline."""
        chain = Blockchain()
        alice = KeyPair.from_seed(b"sync-a")
        bob = KeyPair.from_seed(b"sync-b")
        coinbase = chain.mint(LockingScript.pay_to_address(alice.address()),
                              100_000)
        chain.mine_block()
        channel = LightningChannel(chain, alice, bob, 60_000, 0,
                                   justice_window_blocks=3)
        channel.open([(coinbase.outpoint(0), 100_000)], alice)
        for _ in range(6):
            chain.mine_block()
        stale = channel.current
        channel.pay(from_a=True, amount=20_000)
        channel.broadcast_state(stale)
        chain.mine_block()
        justice = channel.justice_transaction(bob, stale)
        chain.submit(justice)
        chain.mine_block()
        assert not channel.theft_succeeded(stale)
        assert chain.balance(bob.address()) == 60_000

    def test_teechain_safe_under_unbounded_write_delay(self, open_channel):
        """The same adversary against Teechain: delay the victim's
        settlement arbitrarily — no deadline exists, funds stay safe."""
        network, alice, bob, channel = open_channel
        alice.pay(channel, 20_000)
        settlement = bob.settle(channel)
        bob.adversary.delay(settlement.txid, extra=86_400.0)  # one day
        for _ in range(20):
            network.mine()  # a day of blocks without bob's settlement
        # No transaction the attacker holds can spend the deposits at
        # stale balances: the only signed settlements are the final one.
        network.run()
        network.mine()
        assert network.chain.contains(settlement.txid)
        bob.assert_balance_correct()
        alice.assert_balance_correct()

    def test_teechain_settlement_survives_eclipse_then_recovery(
            self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 5_000)
        bob.adversary.eclipse()
        settlement = bob.settle(channel)
        network.run()
        network.mine()
        assert not network.chain.contains(settlement.txid)
        # Weeks later the eclipse lifts; the same transaction still works.
        bob.adversary.lift_eclipse()
        bob.client.broadcast(settlement)
        network.run()
        network.mine()
        assert network.chain.contains(settlement.txid)
        bob.assert_balance_correct()
