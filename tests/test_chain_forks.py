"""Fork choice, reorgs, and the fee market (chain realism)."""

import pytest

from repro.blockchain import (
    Blockchain,
    LockingScript,
    build_p2pkh_transfer,
)
from repro.blockchain.chain import Block
from repro.blockchain.transaction import OutPoint
from repro.crypto import KeyPair
from repro.errors import BlockchainError, InvalidTransaction
from repro.faults import run_all_chain_cells

ALICE = KeyPair.from_seed(b"fork-alice")
BOB = KeyPair.from_seed(b"fork-bob")
MINER = "miner-address"


def _funded_chain(value=100_000):
    chain = Blockchain()
    coinbase = chain.mint(LockingScript.pay_to_address(ALICE.address()), value)
    chain.mine_block()
    return chain, coinbase


def _transfer(coinbase, value, pay, fee=0):
    return build_p2pkh_transfer(
        [(coinbase.outpoint(0), value)], ALICE.private,
        [(BOB.address(), pay), (ALICE.address(), value - pay - fee)],
    )


class TestBlockIdentity:
    def test_sibling_blocks_do_not_collide(self):
        # Regression: without miner/nonce in the header preimage, two
        # sibling blocks with the same parent, transactions, and
        # timestamp hashed identically, corrupting fork bookkeeping.
        chain, _ = _funded_chain()
        parent = chain.tip_hash
        first = chain.mine_block(timestamp=5.0, transactions=())
        second = chain.mine_block(timestamp=5.0, parent=parent,
                                  transactions=())
        assert first.previous_hash == second.previous_hash == parent
        assert first.transactions == second.transactions
        assert first.timestamp == second.timestamp
        assert first.block_hash != second.block_hash

    def test_miner_address_is_part_of_identity(self):
        block_a = Block(height=1, previous_hash="0" * 64, transactions=(),
                        timestamp=0.0, miner="a", nonce=1)
        block_b = Block(height=1, previous_hash="0" * 64, transactions=(),
                        timestamp=0.0, miner="b", nonce=1)
        assert block_a.block_hash != block_b.block_hash


class TestMintGossip:
    def test_mint_fires_submit_listeners(self):
        # Regression: mint() used to bypass the submit listeners, so a
        # live daemon's minted endowment never gossiped to its peers.
        chain = Blockchain()
        seen = []
        chain.subscribe_submit(lambda tx: seen.append(tx.txid))
        coinbase = chain.mint(
            LockingScript.pay_to_address(ALICE.address()), 1_000)
        assert seen == [coinbase.txid]


class TestForkChoice:
    def test_deeper_branch_wins_and_confirmations_reset(self):
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=40_000)
        chain.submit(transfer)
        fork_parent = chain.tip_hash
        chain.mine_block(timestamp=1.0)
        assert chain.confirmations(transfer.txid) == 1

        rival = chain.mine_block(timestamp=1.0, parent=fork_parent,
                                 transactions=())
        # Height tie: the first-seen branch stays active.
        assert chain.confirmations(transfer.txid) == 1
        chain.mine_block(timestamp=2.0, parent=rival.block_hash,
                         transactions=())
        # The two-block branch outweighs; the transfer is unconfirmed.
        assert chain.confirmations(transfer.txid) == 0
        assert chain.in_mempool(transfer.txid)
        assert chain.reorg_count == 1

    def test_heavier_branch_that_fails_to_connect_is_discarded(self):
        chain, _ = _funded_chain()
        fork_parent = chain.tip_hash
        honest = chain.mine_block(timestamp=1.0)
        # Its first block spends an output that never existed: the branch
        # attaches fine and fails only when the reorg connects it.
        bogus = build_p2pkh_transfer(
            [(OutPoint("ee" * 32, 0), 1_000)], ALICE.private,
            [(BOB.address(), 1_000)])
        bad = Block(height=honest.height, previous_hash=fork_parent,
                    transactions=(bogus,), timestamp=1.0, miner=MINER)
        child = Block(height=honest.height + 1,
                      previous_hash=bad.block_hash, transactions=(),
                      timestamp=2.0, miner=MINER)
        assert chain.receive_block(bad) == "connected"
        assert chain.receive_block(child) == "connected"
        assert chain.tip_hash == honest.block_hash
        assert chain.reorg_count == 0
        # The bad block and its descendant are forgotten for good.
        assert chain.receive_block(bad) == "known"
        assert chain.receive_block(child) == "known"
        chain.mine_block(timestamp=3.0)
        assert chain.height == honest.height + 1

    def test_evicted_transaction_reconfirms_with_same_txid(self):
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=40_000)
        chain.submit(transfer)
        fork_parent = chain.tip_hash
        chain.mine_block(timestamp=1.0)
        rival = chain.mine_block(timestamp=1.0, parent=fork_parent,
                                 transactions=())
        chain.mine_block(timestamp=2.0, parent=rival.block_hash,
                         transactions=())
        chain.mine_block(timestamp=3.0)  # mines the returned mempool
        assert chain.confirmations(transfer.txid) == 1
        assert chain.balance(BOB.address()) == 40_000

    def test_resubmit_after_reorg_is_idempotent(self):
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=40_000)
        chain.submit(transfer)
        fork_parent = chain.tip_hash
        chain.mine_block(timestamp=1.0)
        rival = chain.mine_block(timestamp=1.0, parent=fork_parent,
                                 transactions=())
        chain.mine_block(timestamp=2.0, parent=rival.block_hash,
                         transactions=())
        assert chain.in_mempool(transfer.txid)
        # A peer re-gossiping the evicted transaction must be a no-op.
        assert chain.submit(transfer) == transfer.txid
        assert chain.mempool_size() == 1

    def test_reorg_event_reports_depth_and_evictions(self):
        chain, coinbase = _funded_chain()
        events = []
        chain.subscribe_reorg(events.append)
        transfer = _transfer(coinbase, 100_000, pay=10_000)
        chain.submit(transfer)
        fork_parent = chain.tip_hash
        chain.mine_block(timestamp=1.0)
        rival = chain.mine_block(timestamp=1.0, parent=fork_parent,
                                 transactions=())
        chain.mine_block(timestamp=2.0, parent=rival.block_hash,
                         transactions=())
        assert len(events) == 1
        event = events[0]
        assert event.depth == 1
        assert [tx.txid for tx in event.evicted] == [transfer.txid]
        assert event.new_tip == chain.tip_hash

    def test_receive_block_orphan_then_connect(self):
        sender, _ = _funded_chain()
        child = sender.mine_block(timestamp=1.0, transactions=())
        grandchild = sender.mine_block(timestamp=2.0, transactions=())

        receiver, _ = _funded_chain()  # identical genesis by construction
        assert receiver.receive_block(grandchild) == "orphan"
        assert receiver.height == 1
        assert receiver.receive_block(child) == "connected"
        # Connecting the parent flushes the waiting orphan too.
        assert receiver.tip_hash == grandchild.block_hash
        assert receiver.receive_block(grandchild) == "known"

    def test_total_minted_conserved_across_reorg(self):
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=25_000, fee=1_000)
        chain.submit(transfer)
        fork_parent = chain.tip_hash
        chain.mine_block(timestamp=1.0, miner=MINER)
        assert chain.utxos.total_value() == chain.total_minted() == 100_000

        rival = chain.mine_block(timestamp=1.0, parent=fork_parent,
                                 transactions=())
        chain.mine_block(timestamp=2.0, parent=rival.block_hash,
                         transactions=())
        # Fees un-claim with the eviction; value never leaks either way.
        assert chain.utxos.total_value() == chain.total_minted() == 100_000
        assert chain.fees_collected() == 0
        chain.mine_block(timestamp=3.0, miner=MINER)
        assert chain.utxos.total_value() == chain.total_minted() == 100_000
        assert chain.fees_collected() == 1_000
        assert chain.balance(MINER) == 1_000


class TestFeeMarket:
    def test_block_limit_selects_by_feerate_with_interleaved_mint(self):
        chain = Blockchain()
        sources = []
        for index in range(3):
            coinbase = chain.mint(
                LockingScript.pay_to_address(ALICE.address()), 10_000)
            sources.append(coinbase)
        chain.mine_block()
        fees = (10, 500, 100)
        transfers = [
            _transfer(source, 10_000, pay=1_000, fee=fee)
            for source, fee in zip(sources, fees)
        ]
        for transfer in transfers:
            chain.submit(transfer)
        # A mint interleaves with the queue: endowment coinbases are
        # limit-exempt and must not displace fee-paying transactions.
        endowment = chain.mint(
            LockingScript.pay_to_address(BOB.address()), 7_777)

        block = chain.mine_block(timestamp=1.0, limit=2, miner=MINER)
        mined = {tx.txid for tx in block.transactions}
        assert endowment.txid in mined
        assert transfers[1].txid in mined and transfers[2].txid in mined
        assert transfers[0].txid not in mined  # lowest feerate defers
        assert chain.in_mempool(transfers[0].txid)
        assert chain.fees_collected() == 600

        chain.mine_block(timestamp=2.0, limit=2, miner=MINER)
        assert chain.fees_collected() == 610
        assert chain.balance(MINER) == 610
        assert chain.utxos.total_value() == chain.total_minted() == 37_777

    def test_fee_coinbase_claims_only_paid_fees(self):
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=10_000, fee=250)
        chain.submit(transfer)
        block = chain.mine_block(timestamp=1.0, miner=MINER)
        fee_coinbase = block.transactions[0]
        assert fee_coinbase.is_coinbase
        assert fee_coinbase.fee_claim == 250
        assert fee_coinbase.total_output_value() == 250

    def test_overclaiming_block_is_rejected(self):
        from repro.blockchain.transaction import make_coinbase
        chain, coinbase = _funded_chain()
        transfer = _transfer(coinbase, 100_000, pay=10_000, fee=250)
        greedy = Block(
            height=2, previous_hash=chain.tip_hash,
            transactions=(
                # Claims 500 while the block's transactions paid 250.
                make_coinbase(LockingScript.pay_to_address("thief"), 500,
                              nonce=99, fee_claim=500),
                transfer,
            ),
            timestamp=1.0, miner="thief", nonce=7,
        )
        with pytest.raises(BlockchainError):
            chain._connect_block(greedy)
        # The rollback left no trace: the UTXO set still balances.
        assert chain.utxos.total_value() == chain.total_minted() == 100_000
        assert chain.height == 1

    def test_submitted_fee_claim_coinbase_rejected(self):
        from repro.blockchain.transaction import make_coinbase
        chain, _ = _funded_chain()
        claim = make_coinbase(LockingScript.pay_to_address(MINER), 10,
                              nonce=3, fee_claim=10)
        with pytest.raises(InvalidTransaction):
            chain.submit(claim)

    def test_feerate_estimate_reflects_congestion(self):
        chain = Blockchain()
        sources = []
        for _ in range(3):
            sources.append(chain.mint(
                LockingScript.pay_to_address(ALICE.address()), 10_000))
        chain.mine_block()
        assert chain.feerate_estimate(limit=1) == 0.0
        for source, fee in zip(sources, (10, 500, 100)):
            chain.submit(_transfer(source, 10_000, pay=1_000, fee=fee))
        assert chain.feerate_estimate(limit=4) == 0.0  # room for everyone
        marginal = chain.feerate_estimate(limit=2)
        assert marginal > 0.0
        best = chain.feerate_estimate(limit=1)
        assert best >= marginal


class TestChainCells:
    def test_chain_realism_cells_all_hold(self):
        for cell in run_all_chain_cells():
            assert cell.ok, (cell.name, cell.violations)
