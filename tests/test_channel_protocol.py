"""Algorithm 1: the payment-channel protocol, guard by guard."""

import pytest

from repro.errors import (
    ChannelStateError,
    DepositError,
    InsufficientFunds,
    PaymentError,
)


class TestChannelCreation:
    def test_channel_opens_without_blockchain_writes(self, funded_pair):
        network, alice, bob = funded_pair
        height = network.chain.height
        channel = alice.open_channel(bob)
        assert network.chain.height == height
        assert alice.program.channels[channel].is_open
        assert bob.program.channels[channel].is_open

    def test_duplicate_channel_id_rejected(self, funded_pair):
        network, alice, bob = funded_pair
        alice.open_channel(bob, channel_id="c1")
        with pytest.raises(ChannelStateError):
            alice.open_channel(bob, channel_id="c1")

    def test_channel_requires_secure_channel(self, funded_pair):
        network, alice, bob = funded_pair
        carol = network.create_node("carol", funds=0)
        with pytest.raises(ChannelStateError):
            alice.enclave.ecall(
                "new_pay_channel", "cX", carol.enclave.public_key,
                carol.address, alice.address,
            )

    def test_addresses_recorded_both_sides(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        state_a = alice.program.channels[channel]
        state_b = bob.program.channels[channel]
        assert state_a.my_settlement_address == alice.address
        assert state_a.remote_settlement_address == bob.address
        assert state_b.my_settlement_address == bob.address
        assert state_b.remote_settlement_address == alice.address


class TestDepositLifecycle:
    def test_deposit_registered_free(self, funded_pair):
        network, alice, bob = funded_pair
        record = alice.create_deposit(10_000)
        assert alice.program.deposits[record.outpoint].is_free

    def test_deposit_requires_wallet_funds(self, funded_pair):
        network, alice, _ = funded_pair
        with pytest.raises(InsufficientFunds):
            alice.create_deposit(1_000_000)

    def test_deposit_confirmed_on_chain(self, funded_pair):
        network, alice, _ = funded_pair
        record = alice.create_deposit(10_000)
        assert network.chain.confirmations(record.outpoint.txid) >= 1

    def test_unconfirmed_deposit_approval_refused(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000, confirm=False)
        with pytest.raises(DepositError):
            # bob's validator sees zero confirmations and refuses; the
            # resulting missing approval blocks association.
            alice.approve_and_associate(bob, record, channel)

    def test_double_registration_rejected(self, funded_pair):
        network, alice, _ = funded_pair
        record = alice.create_deposit(10_000)
        with pytest.raises(DepositError):
            alice.program.register_deposit(record)

    def test_association_requires_approval(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        with pytest.raises(DepositError):
            alice.associate_deposit(channel, record)

    def test_association_updates_both_balances(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        assert alice.channel_balance(channel) == (10_000, 0)
        assert bob.channel_balance(channel) == (0, 10_000)

    def test_association_shares_deposit_key(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        deposit_address = record.spec.public_keys[0].address()
        assert deposit_address in bob.program.deposit_keys

    def test_double_association_rejected(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        with pytest.raises(DepositError):
            alice.associate_deposit(channel, record)

    def test_release_free_deposit(self, funded_pair):
        network, alice, _ = funded_pair
        before = alice.onchain_balance()
        record = alice.create_deposit(10_000)
        assert alice.onchain_balance() == before - 10_000
        alice.release_deposit(record)
        network.mine()
        assert alice.onchain_balance() == before

    def test_release_associated_deposit_rejected(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        with pytest.raises(DepositError):
            alice.release_deposit(record)

    def test_release_twice_rejected(self, funded_pair):
        network, alice, _ = funded_pair
        record = alice.create_deposit(10_000)
        alice.release_deposit(record)
        with pytest.raises(DepositError):
            alice.release_deposit(record)

    def test_oversized_committee_policy_refused(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        bob.program.max_committee_size = 2
        alice.attach_committee(backups=3, threshold=2)  # n = 4 > 2
        record = alice.create_deposit(10_000)
        alice.approve_deposit(bob, record)  # bob silently refuses
        peer_key = bob.enclave.public_key.to_bytes()
        assert record.outpoint not in alice.program.approved_deposits[peer_key]
        with pytest.raises(DepositError):
            alice.associate_deposit(channel, record)


class TestDissociation:
    def test_dissociate_returns_deposit_to_free(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        alice.dissociate_deposit(channel, record)
        assert alice.program.deposits[record.outpoint].is_free
        assert alice.channel_balance(channel) == (0, 0)

    def test_remote_destroys_key_copy(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        deposit_address = record.spec.public_keys[0].address()
        assert deposit_address in bob.program.deposit_keys
        alice.dissociate_deposit(channel, record)
        assert deposit_address not in bob.program.deposit_keys

    def test_dissociation_blocked_below_deposit_value(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 25_000)  # balance 25k < 50k deposit
        record = next(r for r in alice.deposits if r.value == 50_000)
        with pytest.raises(DepositError):
            alice.dissociate_deposit(channel, record)

    def test_rebalancing_pattern(self, funded_pair):
        """§4.1's deposit rebalancing: swap a large deposit for a smaller
        one after payments reduce the needed collateral."""
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        big = alice.create_deposit(50_000)
        alice.approve_and_associate(bob, big, channel)
        alice.pay(channel, 10_000)  # balance 40k; v1=50k, p1=10k
        small = alice.create_deposit(45_000)  # v1 > v2 > p1
        alice.approve_and_associate(bob, small, channel)
        alice.dissociate_deposit(channel, big)
        assert alice.channel_balance(channel) == (35_000, 10_000)
        alice.release_deposit(big)
        network.mine()
        alice.assert_balance_correct()
        bob.assert_balance_correct()


class TestPayments:
    def test_pay_updates_both_views(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 5_000)
        assert alice.channel_balance(channel) == (45_000, 35_000)
        assert bob.channel_balance(channel) == (35_000, 45_000)

    def test_bidirectional(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 5_000)
        bob.pay(channel, 2_000)
        assert alice.channel_balance(channel) == (47_000, 33_000)

    def test_overdraft_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        with pytest.raises(PaymentError):
            alice.pay(channel, 50_001)

    def test_exact_balance_spendable(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 50_000)
        assert alice.channel_balance(channel) == (0, 80_000)

    def test_zero_and_negative_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        with pytest.raises(PaymentError):
            alice.pay(channel, 0)
        with pytest.raises(PaymentError):
            alice.pay(channel, -5)

    def test_pay_on_unknown_channel_rejected(self, funded_pair):
        network, alice, _ = funded_pair
        with pytest.raises(ChannelStateError):
            alice.program.pay("ghost", 1)

    def test_many_small_payments(self, open_channel):
        network, alice, bob, channel = open_channel
        for _ in range(100):
            alice.pay(channel, 100)
        assert alice.channel_balance(channel) == (40_000, 40_000)
        assert bob.program.payments_received == 100


class TestSettlement:
    def test_onchain_settlement_pays_final_balances(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 10_000)
        transaction = alice.settle(channel)
        network.mine()
        assert network.chain.contains(transaction.txid)
        # alice: 100k - 50k deposit + 40k settle = 90k
        assert alice.onchain_balance() == 90_000
        assert bob.onchain_balance() == 110_000

    def test_settlement_spends_all_channel_deposits(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 1_000)  # non-neutral → on-chain settlement
        transaction = alice.settle(channel)
        assert len(transaction.inputs) == 2

    def test_peer_learns_of_settlement(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 1_000)
        alice.settle(channel)
        assert bob.program.channels[channel].terminated

    def test_offchain_settlement_when_neutral(self, funded_pair):
        network, alice, bob = funded_pair
        channel = alice.open_channel(bob)
        record = alice.create_deposit(10_000)
        alice.approve_and_associate(bob, record, channel)
        height = network.chain.height
        result = alice.settle(channel)
        assert result is None  # off-chain
        assert network.chain.height == height
        assert alice.program.deposits[record.outpoint].is_free
        assert alice.program.channels[channel].terminated
        assert bob.program.channels[channel].terminated

    def test_offchain_settlement_after_roundtrip_payments(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.pay(channel, 5_000)
        bob.pay(channel, 5_000)  # back to neutral
        assert alice.settle(channel) is None

    def test_settle_closed_channel_rejected(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.settle(channel)
        with pytest.raises(ChannelStateError):
            alice.settle(channel)

    def test_unilateral_settlement_without_peer(self, open_channel):
        """The asynchronous-safety core: settle with the peer offline."""
        network, alice, bob, channel = open_channel
        alice.pay(channel, 10_000)
        network.transport.unregister("bob")  # bob vanishes
        transaction = alice._ecall("unilateral_settlement", channel)
        alice.client.broadcast(transaction)
        network.mine()
        assert alice.onchain_balance() == 90_000
        # bob's share sits on-chain at his address even though he is gone.
        assert network.chain.balance(bob.address) == 110_000

    def test_channel_reusable_after_settlement(self, open_channel):
        network, alice, bob, channel = open_channel
        alice.settle(channel)
        channel2 = alice.open_channel(bob)
        record = alice.create_deposit(5_000)
        alice.approve_and_associate(bob, record, channel2)
        alice.pay(channel2, 1_000)
        assert alice.channel_balance(channel2) == (4_000, 1_000)


class TestInboundPeerLookup:
    """Regression: ``handle_envelope`` found the sender's key by scanning
    ``peer_names`` — O(peers) per inbound message at a hub.  It now reads
    a name → key index kept by (re)install."""

    class _Unwalkable(dict):
        """A dict that may be indexed, never iterated."""

        def _refuse(self, *args):
            raise AssertionError("inbound delivery walked peer_names")

        __iter__ = items = keys = values = _refuse

    class _CountingIndex(dict):
        def __init__(self, *args):
            super().__init__(*args)
            self.lookups = []

        def get(self, key, default=None):
            self.lookups.append(key)
            return super().get(key, default)

    @staticmethod
    def _crowd(node, count):
        """Install ``count`` more peers on ``node``; only their identity
        keys and names matter, so they share one set of channel keys."""
        from repro.crypto.authenticated import derive_channel_keys
        from repro.crypto.keys import KeyPair
        from repro.network.secure_channel import SecureChannel

        local = node.enclave.identity
        keys = derive_channel_keys(local.private,
                                   KeyPair.from_seed(b"crowd").public)
        for index in range(count):
            remote = KeyPair.from_seed(b"crowd %d" % index).public
            node._ecall("install_secure_channel",
                        SecureChannel(local.public, remote, keys),
                        f"peer{index}")

    def test_one_delivery_touches_one_entry_among_a_thousand(
            self, open_channel):
        network, alice, bob, channel = open_channel
        self._crowd(bob, 1000)
        program = bob.program
        assert len(program.peer_names) == 1001
        program.peer_names = self._Unwalkable(program.peer_names)
        program._peer_key_by_name = index = self._CountingIndex(
            program._peer_key_by_name)
        before = bob.channel_balance(channel)[0]
        alice.pay(channel, 700)
        assert bob.channel_balance(channel)[0] == before + 700
        assert index.lookups == ["alice"]

    def test_unknown_peer_still_raises(self, open_channel):
        network, alice, bob, channel = open_channel
        with pytest.raises(ChannelStateError, match="no secure channel"):
            bob.program.handle_envelope("mallory", b"\x00" * 64)

    def test_reinstall_after_a_restart_keeps_the_index_right(
            self, open_channel):
        from tests.conftest import renew_secure_session

        network, alice, bob, channel = open_channel
        self._crowd(bob, 5)
        alice_key = alice.enclave.public_key
        renew_secure_session(alice, bob, b"second boot")
        program = bob.program
        assert program._peer_key_by_name["alice"] == alice_key.to_bytes()
        assert len(program._peer_key_by_name) == len(program.peer_names) == 6
        assert ({name: key for key, name in program.peer_names.items()}
                == program._peer_key_by_name)
        before = bob.channel_balance(channel)[0]
        alice.pay(channel, 300)
        bob.pay(channel, 100)
        assert bob.channel_balance(channel)[0] == before + 200
