"""Algorithm 2: multi-hop payments — stage machine, τ, aborts, ejections
at every stage, and PoPT classification."""

import pytest

from repro.core.state import MultihopStage
from repro.errors import MultihopError, SettlementError
from repro.network import NetworkAdversary


class TestHappyPath:
    def test_two_hop_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        assert alice.multihop_completed(payment)
        assert alice.channel_balance(ab) == (35_000, 5_000)
        assert bob.channel_balance(ab) == (5_000, 35_000)
        assert bob.channel_balance(bc) == (35_000, 5_000)
        assert carol.channel_balance(bc) == (5_000, 35_000)

    def test_intermediary_balance_conserved(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        before = (bob.channel_balance(ab)[0] + bob.channel_balance(bc)[0])
        alice.pay_multihop([alice, bob, carol], 5_000)
        after = (bob.channel_balance(ab)[0] + bob.channel_balance(bc)[0])
        assert before == after

    def test_channels_unlocked_after_completion(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        alice.pay_multihop([alice, bob, carol], 5_000)
        for node, cid in ((alice, ab), (bob, ab), (bob, bc), (carol, bc)):
            assert node.program.channels[cid].stage is MultihopStage.IDLE

    def test_sequential_payments_same_path(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        for _ in range(5):
            alice.pay_multihop([alice, bob, carol], 1_000)
        assert carol.channel_balance(bc) == (5_000, 35_000)

    def test_longer_path(self, network):
        nodes = [network.create_node(f"n{i}", funds=100_000)
                 for i in range(5)]
        channels = []
        for left, right in zip(nodes, nodes[1:]):
            cid = left.open_channel(right)
            record = left.create_deposit(40_000)
            left.approve_and_associate(right, record, cid)
            channels.append(cid)
        payment = nodes[0].pay_multihop(nodes, 2_000)
        assert nodes[0].multihop_completed(payment)
        assert nodes[-1].channel_balance(channels[-1]) == (2_000, 38_000)

    def test_reverse_direction_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        alice.pay_multihop([alice, bob, carol], 10_000)
        payment = carol.pay_multihop([carol, bob, alice], 4_000)
        assert carol.multihop_completed(payment)
        assert alice.channel_balance(ab) == (34_000, 6_000)


class TestValidation:
    def test_insufficient_balance_on_first_hop(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.pay_multihop([alice, bob, carol], 40_001)

    def test_insufficient_balance_mid_path_aborts_cleanly(self, network):
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        carol = network.create_node("carol", funds=100_000)
        ab = alice.open_channel(bob)
        bc = bob.open_channel(carol)
        deposit = alice.create_deposit(40_000)
        alice.approve_and_associate(bob, deposit, ab)
        small = bob.create_deposit(1_000)
        bob.approve_and_associate(carol, small, bc)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        # The abort propagates back: alice's lock is released, nothing paid.
        assert not alice.multihop_completed(payment)
        assert payment in alice.program.multihop_aborted
        assert alice.program.channels[ab].stage is MultihopStage.IDLE
        assert alice.channel_balance(ab) == (40_000, 0)

    def test_path_with_repeated_node_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.pay_multihop([alice, bob, alice], 100)

    def test_single_node_path_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.pay_multihop([alice], 100)

    def test_zero_amount_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.pay_multihop([alice, bob, carol], 0)

    def test_locked_channel_blocks_plain_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        adversary = NetworkAdversary(network.transport)
        adversary.partition("bob", "carol")
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        from repro.errors import ChannelStateError
        with pytest.raises(ChannelStateError):
            alice.pay(ab, 100)

    def test_locked_channel_blocks_settle(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        adversary = NetworkAdversary(network.transport)
        adversary.partition("bob", "carol")
        alice.pay_multihop([alice, bob, carol], 5_000)
        from repro.errors import ChannelStateError
        with pytest.raises(ChannelStateError):
            alice.settle(ab)


def stall(network, sender, receiver, after):
    adversary = NetworkAdversary(network.transport)
    adversary.drop_after(sender, receiver, after)
    return adversary


class TestEject:
    def test_eject_at_lock_returns_pre_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "carol", 0)  # lock never reaches carol
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        transactions = bob.eject(payment)
        assert len(transactions) == 2  # both adjacent channels
        network.mine()
        transactions_a = alice.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()
        # Pre-payment: carol gained nothing.
        assert network.chain.balance(carol.address) == 60_000 + 40_000

    def test_eject_at_sign_returns_pre_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 0)  # sign never reaches alice
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        assert bob.program.multihop_sessions[payment].stage is MultihopStage.SIGN
        transactions = bob.eject(payment)
        network.mine()
        alice.eject(payment)
        carol.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()

    def test_eject_at_preupdate_returns_tau(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        # alice→bob messages: lock (1), preUpdate (2).  Dropping from the
        # second leaves alice in PRE_UPDATE holding the fully signed τ
        # while bob and carol are still in SIGN.
        stall(network, "alice", "bob", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        session = alice.program.multihop_sessions[payment]
        assert session.stage is MultihopStage.PRE_UPDATE
        transactions = alice.eject(payment)
        assert len(transactions) == 1
        tau = transactions[0]
        # τ spends every deposit in the path.
        assert len(tau.inputs) == 2
        network.mine()
        assert network.chain.contains(tau.txid)
        # bob and carol eject at SIGN (pre-payment candidates); those
        # conflict with the already-confirmed τ, so the chain keeps the
        # post-payment outcome and their broadcasts are simply rejected.
        for node in (bob, carol):
            node.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()
        # τ settles post-payment: carol's address gains the amount.
        assert network.chain.balance(carol.address) == 105_000

    def test_eject_at_update_returns_tau(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 1)  # update to alice dropped
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        assert (bob.program.multihop_sessions[payment].stage
                is MultihopStage.UPDATE)
        transactions = bob.eject(payment)
        assert len(transactions) == 1  # τ

    def test_eject_at_postupdate_returns_post_payment(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "carol", "bob", 2)  # release dropped
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        assert (bob.program.multihop_sessions[payment].stage
                is MultihopStage.POST_UPDATE)
        transactions = bob.eject(payment)
        assert len(transactions) == 2  # per-channel post settlements
        network.mine()
        alice.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()
        assert network.chain.balance(carol.address) == 105_000

    def test_eject_unknown_payment_rejected(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with pytest.raises(MultihopError):
            alice.eject("ghost")


class TestPoPT:
    def test_popt_pre_payment_classification(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 0)  # alice stuck in LOCK; bob in SIGN
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        transactions = bob.eject(payment)  # pre-payment settlements
        network.mine()
        # carol (stage SIGN) recognises bob's settlement of their shared
        # channel as a pre-payment PoPT and settles consistently.
        bc_deposits = carol.program.channels[bc].all_deposits()
        bc_settlement = next(
            tx for tx in transactions
            if set(tx.spent_outpoints()) == bc_deposits
        )
        carol_transactions = carol.eject_with_popt(payment, bc_settlement)
        assert carol_transactions[0].txid == bc_settlement.txid
        network.mine()
        alice.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()
        # Pre-payment state: carol gained nothing.
        assert network.chain.balance(carol.address) == 100_000

    def test_popt_post_payment_classification(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        # carol completed update; her post settlement is a valid PoPT.
        session_c = carol.program.multihop_sessions[payment]
        post_bc = session_c.local_post_settlements[bc]
        transactions = alice.eject_with_popt(payment, post_bc)
        assert len(transactions) == 1
        # alice settles post-payment: her output is 35,000.
        payout = {output.script.destination(): output.value
                  for output in transactions[0].outputs}
        assert payout[alice.address] == 35_000

    def test_unrelated_transaction_rejected_as_popt(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        from repro.blockchain import build_p2pkh_transfer
        entry = network.chain.outputs_for(carol.address)[0]
        unrelated = build_p2pkh_transfer(
            [(entry.outpoint, entry.value)], carol.wallet.private,
            [(alice.address, entry.value)])
        with pytest.raises(SettlementError):
            alice.eject_with_popt(payment, unrelated)

    def test_conflicting_settlements_cannot_both_confirm(self, three_hop_path):
        """The blockchain-level invariant PoPTs rely on: pre- and
        post-payment settlements of the same channel conflict."""
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "alice", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        session_c = carol.program.multihop_sessions[payment]
        pre = session_c.local_pre_settlements[bc]
        post = session_c.local_post_settlements[bc]
        assert pre.conflicts_with(post)
        network.chain.submit(post)
        from repro.errors import DoubleSpend
        with pytest.raises(DoubleSpend):
            network.chain.submit(pre)

    def test_tau_conflicts_with_individual_settlements(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "alice", "bob", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        tau = alice.program.multihop_sessions[payment].tau
        session_c = carol.program.multihop_sessions[payment]
        for candidate in list(session_c.local_pre_settlements.values()) + \
                list(session_c.local_post_settlements.values()):
            assert tau.conflicts_with(candidate)


class TestCompletedPayments:
    """Regression: ``multihop_completed`` was a list tested with ``in`` —
    every completion check walked every payment ever made."""

    class _Id(str):
        """A payment id that counts how often it is compared."""

        comparisons = 0

        def __eq__(self, other):
            type(self).comparisons += 1
            return str.__eq__(self, other)

        __hash__ = str.__hash__

    def test_membership_does_not_walk_five_thousand_ids(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        completed = alice.program.multihop_completed
        for index in range(5000):
            completed[self._Id(f"old-{index}")] = None
        payment = alice.pay_multihop([alice, bob, carol], 1_000)
        self._Id.comparisons = 0
        assert alice.multihop_completed(payment)
        assert not alice.multihop_completed("never-made")
        assert alice.multihop_completed("old-4999")
        # Hash lookups: a handful of comparisons, not thousands.
        assert self._Id.comparisons <= 4

    def test_completion_order_is_kept(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        payments = [alice.pay_multihop([alice, bob, carol], 100)
                    for _ in range(3)]
        assert list(alice.program.multihop_completed) == payments
