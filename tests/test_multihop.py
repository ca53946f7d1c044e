"""Algorithm 2: multi-hop payments — stage machine, τ, aborts, ejections
at every stage, and PoPT classification."""

import copy

import pytest

from repro import obs
from repro.core.state import MultihopStage
from repro.errors import (
    MultihopError,
    ReplicationError,
    SettlementError,
    ThresholdError,
)
from repro.faults.matrix import recovery_sweep
from repro.network import NetworkAdversary
from repro.tee import crash_enclave
from repro.tee.enclave import EnclaveStatus

from tests.test_send_path import fingerprint


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
        post-payment settlements of the same channel conflict.  Bob
        ejects in two forks of the scenario — before the sign reaches
        alice (pre) and after the release is lost (post) — and both
        results are offered to the chain the forks share."""
        network, alice, bob, carol, ab, bc = three_hop_path
        bc_deposits = set(bob.program.channels[bc].all_deposits())
        settlements = {}
        for state, link in (("pre", ("bob", "alice", 0)),
                            ("post", ("carol", "bob", 2))):
            fork = copy.deepcopy(network)
            stall(fork, *link)
            payment = fork.nodes["alice"].pay_multihop(
                [fork.nodes[name] for name in ("alice", "bob", "carol")],
                5_000)
            settlements[state] = next(
                tx for tx in fork.nodes["bob"]._ecall("eject", payment)
                if set(tx.spent_outpoints()) == bc_deposits)
        pre, post = settlements["pre"], settlements["post"]
        assert pre.txid != post.txid and pre.conflicts_with(post)
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


L, S, P, U, Q = (MultihopStage.LOCK, MultihopStage.SIGN,
                 MultihopStage.PRE_UPDATE, MultihopStage.UPDATE,
                 MultihopStage.POST_UPDATE)
NAMES = ("alice", "bob", "carol")
# One row per message of the pipeline: dropping it (and everything after
# it on that link) leaves alice–bob–carol at rest in the listed stages;
# ``None`` = no session yet, or already finished.  Together the rows
# visit every reachable (stage, position) pair — p_n never rests in
# lock, preUpdate or postUpdate, p_1 never in sign or update.
RESTING_POINTS = [
    (("alice", "bob", 0), (L, None, None)),    # lock
    (("bob", "carol", 0), (L, L, None)),
    (("carol", "bob", 0), (L, L, S)),          # sign
    (("bob", "alice", 0), (L, S, S)),
    (("alice", "bob", 1), (P, S, S)),          # preUpdate
    (("bob", "carol", 1), (P, P, S)),
    (("carol", "bob", 1), (P, P, U)),          # update
    (("bob", "alice", 1), (P, U, U)),
    (("alice", "bob", 2), (Q, U, U)),          # postUpdate
    (("bob", "carol", 2), (Q, Q, U)),
    (("carol", "bob", 2), (Q, Q, None)),       # release
    (("bob", "alice", 2), (Q, None, None)),
]
EJECT_CELLS = [
    pytest.param(link, stages, position,
                 id=f"{link[0]}-{link[1]}-{link[2]}:{NAMES[position]}")
    for link, stages in RESTING_POINTS
    for position, stage in enumerate(stages) if stage is not None
]


def session_stages(nodes, payment):
    stages = []
    for node in nodes:
        session = node.program.multihop_sessions.get(payment)
        stages.append(session.stage if session else None)
    return tuple(stages)


def eject_checked(network, node, payment, *ecall):
    """Run an eject ecall without the host's broadcast and check what it
    released: announced before it was signed, and valid on chain."""
    program = node.program
    session = program.multihop_sessions[payment]
    tau = session.tau
    announced = set(program.pending_candidate_txids[payment])
    transactions = node._ecall(*ecall)
    assert transactions
    for transaction in transactions:
        assert transaction.txid in announced
        assert (transaction.txid in session.pre_txids + session.post_txids
                or transaction is tau)
        network.chain.submit(transaction)  # raises on a bad witness
    return transactions


def assert_everyone_whole(network, nodes):
    for node in nodes:
        node.assert_balance_correct()
    assert network.chain.utxos.total_value() == network.chain.total_minted()


class TestEjectEverywhere:
    """Candidates are signed when an eject releases them, not at lock
    time: whatever comes out must be exactly an announced candidate and
    carry witnesses the chain accepts, wherever the pipeline stopped."""

    @pytest.mark.parametrize("link, stages, position", EJECT_CELLS)
    def test_eject_at_every_resting_point(self, three_hop_path, link,
                                          stages, position):
        network, alice, bob, carol, ab, bc = three_hop_path
        nodes = (alice, bob, carol)
        stall(network, *link)
        payment = alice.pay_multihop(nodes, 5_000)
        assert session_stages(nodes, payment) == stages
        first = nodes[position]
        transactions = eject_checked(network, first, payment,
                                     "eject", payment)
        if stages[position] in (P, U):
            assert len(transactions) == 1  # τ
        else:
            assert len(transactions) == len(
                first.program.multihop_sessions[payment].local_channel_ids())
        network.mine()
        # Everyone else terminates consistently with what confirmed.
        for node in nodes:
            recovery_sweep(node)
            network.mine()
        assert_everyone_whole(network, nodes)
        paid = stages[position] not in (L, S)
        assert network.chain.balance(carol.address) == \
            100_000 + (5_000 if paid else 0)

    @pytest.mark.parametrize("link, paid", [
        pytest.param(("bob", "alice", 0), False, id="pre"),
        pytest.param(("bob", "carol", 2), True, id="post"),
    ])
    def test_eject_with_popt(self, three_hop_path, link, paid):
        """Alice settles a–b; carol, shown that transaction, settles b–c
        in the same state though her own stage (sign / update) would
        have released something else."""
        network, alice, bob, carol, ab, bc = three_hop_path
        nodes = (alice, bob, carol)
        stall(network, *link)
        payment = alice.pay_multihop(nodes, 5_000)
        (popt,) = eject_checked(network, alice, payment, "eject", payment)
        network.mine()
        (settlement,) = eject_checked(network, carol, payment,
                                      "eject_with_popt", payment, popt)
        assert settlement.txid != popt.txid
        network.mine()
        recovery_sweep(bob)
        network.mine()
        assert_everyone_whole(network, nodes)
        assert network.chain.balance(carol.address) == \
            100_000 + (5_000 if paid else 0)

    def test_eject_with_committee_members_down(self, network):
        """2-of-3 committee deposits on both channels.  Lazy signing
        needs a quorum at eject time — what unilateral settle needs too:
        one member down is tolerated, two make eject fail *before* it
        touches anything, and it succeeds once one of them is back."""
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        carol = network.create_node("carol", funds=100_000)
        nodes = (alice, bob, carol)
        alice.attach_committee(backups=2, threshold=2)
        bob.attach_committee(backups=2, threshold=2)
        ab = alice.open_channel(bob)
        bc = bob.open_channel(carol)
        alice.approve_and_associate(bob, alice.create_deposit(40_000), ab)
        bob.approve_and_associate(carol, bob.create_deposit(40_000), bc)
        stall(network, "bob", "alice", 0)  # alice lock; bob, carol sign
        payment = alice.pay_multihop(nodes, 5_000)

        def eject(node):
            # The terminate step replicates; a chain that finds a dead
            # member there freezes and rolls the ecall back, after which
            # settlement operations (eject among them) go through.
            try:
                return eject_checked(network, node, payment,
                                     "eject", payment)
            except ReplicationError:
                assert node.replication.frozen
                return eject_checked(network, node, payment,
                                     "eject", payment)

        first, second = bob.replication.members
        crash_enclave(first)
        crash_enclave(second)
        before = fingerprint(bob)
        with pytest.raises(ThresholdError):
            bob._ecall("eject", payment)
        assert fingerprint(bob) == before
        assert not bob.replication.frozen
        second.status = EnclaveStatus.RUNNING  # was only unreachable
        assert len(eject(bob)) == 2
        crash_enclave(alice.replication.members[0])
        assert len(eject(alice)) == 1
        network.mine()
        recovery_sweep(carol)
        network.mine()
        assert_everyone_whole(network, nodes)


def signer_down_for(outpoints):
    """A ``committee_provider`` that cannot sign for ``outpoints``."""
    def chain(local):
        def provide(deposit, digest, unsigned):
            if deposit.outpoint in outpoints:
                raise SettlementError("signer unavailable")
            return local(deposit, digest, unsigned)
        return provide
    return chain


class TestEjectOrdering:
    """``eject`` used to terminate the session — channels reset, deposits
    marked settled, ``mh_terminated`` replicated — and only then find out
    it had nothing to return.  On the parent the first test fails with
    the fingerprint changed; the other two never see their exception,
    because nothing was signed at eject time."""

    def test_missing_tau_leaves_state_untouched(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "alice", "bob", 1)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        session = alice.program.multihop_sessions[payment]
        assert session.stage is MultihopStage.PRE_UPDATE
        tau, session.tau = session.tau, None
        before = fingerprint(alice)
        with pytest.raises(SettlementError):
            alice.eject(payment)
        assert fingerprint(alice) == before
        session.tau = tau
        assert alice.eject(payment) == [tau]
        network.mine()
        assert network.chain.contains(tau.txid)

    def test_failed_signature_leaves_state_untouched(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        stall(network, "bob", "carol", 0)
        payment = alice.pay_multihop([alice, bob, carol], 5_000)
        provider = bob.program.committee_provider
        bob.program.committee_provider = signer_down_for(
            set(bob.program.deposits))
        before = fingerprint(bob)
        with pytest.raises(SettlementError):
            bob.eject(payment)
        assert fingerprint(bob) == before
        bob.program.committee_provider = provider
        assert len(bob.eject(payment)) == 2
        network.mine()
        alice.eject(payment)
        network.mine()
        for node in (alice, bob, carol):
            node.assert_balance_correct()


    def test_eject_all_signs_everything_before_terminating_anything(
            self, three_hop_path):
        """Bob is the payee of two stalled payments.  Signing the second
        fails: the first must not have been terminated meanwhile, or its
        signed settlements would be lost with the exception."""
        network, alice, bob, carol, ab, bc = three_hop_path
        dave = network.create_node("dave", funds=100_000)
        db = dave.open_channel(bob)
        dave.approve_and_associate(bob, dave.create_deposit(40_000), db)
        stall(network, "bob", "alice", 0)
        stall(network, "bob", "dave", 0)
        payments = [alice.pay_multihop([alice, bob], 5_000),
                    dave.pay_multihop([dave, bob], 5_000)]
        assert sorted(bob.program.multihop_sessions) == payments
        provider = bob.program.committee_provider
        bob.program.committee_provider = signer_down_for(
            set(bob.program.channels[db].all_deposits()))
        before = fingerprint(bob)
        with pytest.raises(SettlementError):
            bob.eject_all()
        assert fingerprint(bob) == before
        bob.program.committee_provider = provider
        assert sorted(bob.eject_all()) == payments
        network.mine()
        for node in (alice, bob, dave):
            node.assert_balance_correct()


class TestTauWitnesses:
    def test_each_input_signed_once_by_the_hop_whose_witness_survives(
            self, three_hop_path):
        """Both channels funded from both sides: four τ inputs, every
        1-of-1 key held by both endpoints of its channel.  Each input is
        signed exactly once, and τ is what signing everything everywhere
        produced (ECDSA here is deterministic, RFC 6979)."""
        network, alice, bob, carol, ab, bc = three_hop_path
        nodes = (alice, bob, carol)
        bob.approve_and_associate(alice, bob.create_deposit(10_000), ab)
        carol.approve_and_associate(bob, carol.create_deposit(10_000), bc)
        stall(network, "carol", "bob", 1)  # update lost: τ held by all
        with obs.collecting() as (registry, _tracer):
            payment = alice.pay_multihop(nodes, 5_000)
            counters = registry.snapshot()["counters"]
        assert session_stages(nodes, payment) == (P, P, U)
        tau = alice.program.multihop_sessions[payment].tau
        assert len(tau.inputs) == 4
        assert counters["crypto.sign"] == 4
        for node in nodes:
            assert node.program.multihop_sessions[payment].tau == tau
        digest = tau.sighash()
        for tx_input in tau.inputs:
            record = bob.program.deposits[tx_input.outpoint]
            (public_key,) = record.spec.public_keys
            key = bob.program.deposit_keys[public_key.address()]
            assert tx_input.witness.signatures == (key.sign(digest),)
        bob.eject(payment)
        network.mine()
        assert network.chain.contains(tau.txid)
        assert_everyone_whole(network, nodes)


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
