"""Algorithm 3 + §6.1: force-freeze chain replication and committee
chains."""

import pickle

import pytest

from repro.core.channel_base import replication_state
from repro.core.replication import (
    CommitteeMemberProgram,
    ReplicationChain,
    recover_settlements,
)
from repro.core.settlement import build_unsigned_settlement
from repro.errors import (
    EnclaveFrozen,
    ReplicationError,
    SettlementError,
    ThresholdError,
)
from repro.tee import Enclave, crash_enclave, fork_enclave


@pytest.fixture
def committee_pair(network):
    alice = network.create_node("alice", funds=100_000)
    bob = network.create_node("bob", funds=100_000)
    alice.attach_committee(backups=2, threshold=2)
    channel = alice.open_channel(bob)
    deposit = alice.create_deposit(40_000)
    alice.approve_and_associate(bob, deposit, channel)
    return network, alice, bob, channel, deposit


class TestReplication:
    def test_every_mutation_pushes_an_update(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        pushes = alice.replication.pushes
        alice.pay(channel, 1_000)
        assert alice.replication.pushes == pushes + 1

    def test_backups_hold_latest_state(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 1_000)
        for member in alice.replication.members:
            state = member.program.state
            assert state["channels"][channel].my_balance == 39_000

    def test_versions_strictly_increase(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        member = alice.replication.members[0]
        version = member.ecall("latest_version")
        alice.pay(channel, 1_000)
        assert member.ecall("latest_version") == version + 1

    def test_replayed_old_update_refused(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        member = alice.replication.members[0]
        blob = pickle.dumps(replication_state(alice.program))
        version = member.ecall("latest_version")
        with pytest.raises(ReplicationError):
            member.ecall("state_update", alice.replication.chain_id,
                         version, blob)  # not greater than current

    def test_update_for_wrong_chain_refused(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        member = alice.replication.members[0]
        with pytest.raises(ReplicationError):
            member.ecall("state_update", "other-chain", 999, b"x")

    def test_member_cannot_join_two_chains(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        member = alice.replication.members[0]
        with pytest.raises(ReplicationError):
            member.ecall("assign_to_chain", "second-chain")

    def test_backup_crash_freezes_chain_and_rolls_back(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 1_000)
        crash_enclave(alice.replication.members[1])
        with pytest.raises(ReplicationError):
            alice.pay(channel, 2_000)
        # The failed payment rolled back: balance unchanged.
        assert alice.program.channels[channel].my_balance == 39_000
        assert alice.replication.frozen

    def test_rolled_back_payment_never_reaches_peer(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        crash_enclave(alice.replication.members[0])
        with pytest.raises(ReplicationError):
            alice.pay(channel, 2_000)
        assert bob.channel_balance(channel) == (0, 40_000)

    def test_read_from_backup_force_freezes(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.replication.read_backup(alice.replication.members[0])
        assert alice.replication.frozen
        with pytest.raises(EnclaveFrozen):
            alice.pay(channel, 1_000)

    def test_frozen_chain_still_settles(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 5_000)
        alice.replication.read_backup(alice.replication.members[0])
        transaction = alice._ecall("unilateral_settlement", channel)
        alice.client.broadcast(transaction)
        network.mine()
        alice.assert_balance_correct()
        bob.assert_balance_correct()

    def test_recovery_from_backup_snapshot(self, network):
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        alice.attach_committee(backups=2, threshold=1)
        channel = alice.open_channel(bob)
        deposit = alice.create_deposit(40_000)
        alice.approve_and_associate(bob, deposit, channel)
        alice.pay(channel, 5_000)
        crash_enclave(alice.enclave)
        state = alice.replication.members[0].ecall("read_state")
        transactions = recover_settlements(
            state, alice.address, provider_factory=alice._signing_chain)
        for transaction in transactions:
            alice.client.broadcast(transaction)
        network.mine()
        alice.assert_balance_correct()
        bob.assert_balance_correct()

    def test_reclaim_falls_back_to_backups(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 5_000)
        crash_enclave(alice.enclave)
        alice.assert_balance_correct()
        bob.assert_balance_correct()


class TestCommitteeSigning:
    def test_deposit_uses_committee_multisig(self, committee_pair):
        network, alice, bob, channel, deposit = committee_pair
        assert deposit.spec.threshold == 2
        assert deposit.spec.total == 3

    def test_settlement_gathers_quorum(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 5_000)
        transaction = alice.settle(channel)
        network.mine()
        assert network.chain.contains(transaction.txid)
        alice.assert_balance_correct()

    def test_counterparty_can_settle_via_committee(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 9_000)
        transaction = bob.settle(channel)
        network.mine()
        assert network.chain.contains(transaction.txid)
        bob.assert_balance_correct()

    def test_quorum_survives_minority_crash(self, committee_pair):
        network, alice, bob, channel, _ = committee_pair
        alice.pay(channel, 5_000)
        crash_enclave(alice.replication.members[0])
        # The crash freezes the chain on the next push attempt; settle at
        # the frozen state still gathers 2 of the 3 member signatures.
        try:
            alice.pay(channel, 1_000)
        except ReplicationError:
            pass
        transaction = alice._ecall("unilateral_settlement", channel)
        alice.client.broadcast(transaction)
        network.mine()
        assert network.chain.contains(transaction.txid)

    def test_quorum_fails_below_threshold(self, committee_pair):
        network, alice, bob, channel, deposit = committee_pair
        alice.pay(channel, 5_000)
        for member in alice.replication.members:
            crash_enclave(member)
        # Only the primary's signature remains: 1 < m = 2.
        with pytest.raises((ThresholdError, SettlementError)):
            alice._ecall("unilateral_settlement", channel)

    def test_stale_settlement_refused_by_members(self, committee_pair):
        network, alice, bob, channel, deposit = committee_pair
        fork = fork_enclave(alice.enclave, "stolen")
        alice.pay(channel, 10_000)
        stale = fork.program.channels[channel]
        records = [fork.program.deposits[o]
                   for o in sorted(stale.all_deposits())]
        stale_settlement = build_unsigned_settlement(records, [
            (stale.my_settlement_address, stale.my_balance),
            (stale.remote_settlement_address, stale.remote_balance)])
        with pytest.raises(ThresholdError):
            alice.committee.gather_signatures(deposit, stale_settlement)

    def test_arbitrary_spend_refused_by_members(self, committee_pair):
        network, alice, bob, channel, deposit = committee_pair
        from repro.core.deposits import DepositRecord
        theft = build_unsigned_settlement(
            [alice.program.deposits[deposit.outpoint]],
            [("btcattacker", 40_000)])
        with pytest.raises(ThresholdError):
            alice.committee.gather_signatures(deposit, theft)

    def test_member_refuses_without_replicated_state(self, network):
        alice = network.create_node("alice", funds=100_000)
        member = Enclave(CommitteeMemberProgram(), name="lonely")
        member.ecall("assign_to_chain", "c")
        address, _ = member.ecall("new_deposit_address")
        from repro.blockchain.transaction import OutPoint, Transaction, TxInput, TxOutput
        from repro.blockchain.script import LockingScript
        bogus = Transaction(
            inputs=(TxInput(OutPoint("aa" * 32, 0)),),
            outputs=(TxOutput(1, LockingScript.pay_to_address("btcx")),))
        with pytest.raises(ReplicationError):
            member.ecall("sign_deposit_spend", address, bogus)

    def test_invalid_threshold_rejected(self, network):
        alice = network.create_node("alice", funds=1_000)
        with pytest.raises(ThresholdError):
            alice.attach_committee(backups=1, threshold=3)
