"""Blockchain substrate: transactions, scripts, UTXO set, validation,
mining, confirmations, and conservation of value."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.blockchain import (
    Blockchain,
    LockingScript,
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    build_p2pkh_transfer,
)
from repro.blockchain.cost import (
    blockchain_cost,
    transaction_cost,
    transaction_pubkeys,
    transaction_signatures,
)
from repro.crypto import KeyPair, MultisigSpec
from repro.errors import (
    DoubleSpend,
    InvalidTransaction,
    UnknownOutput,
)

ALICE = KeyPair.from_seed(b"chain-alice")
BOB = KeyPair.from_seed(b"chain-bob")


def funded_chain(value=100_000):
    chain = Blockchain()
    coinbase = chain.mint(LockingScript.pay_to_address(ALICE.address()), value)
    chain.mine_block()
    return chain, coinbase


class TestTransactions:
    def test_txid_ignores_witnesses(self):
        chain, coinbase = funded_chain()
        unsigned = Transaction(
            inputs=(TxInput(coinbase.outpoint(0)),),
            outputs=(TxOutput(100_000,
                              LockingScript.pay_to_address(BOB.address())),),
        )
        signed = unsigned.with_witnesses([Witness(
            signatures=(ALICE.private.sign(unsigned.sighash()),),
            public_key=ALICE.public,
        )])
        assert unsigned.txid == signed.txid

    def test_conflict_detection(self):
        chain, coinbase = funded_chain()
        tx1 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 1)])
        tx2 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 2)])
        chain.submit(tx1)
        with pytest.raises(DoubleSpend):
            chain.submit(tx2)  # spends tx1's input: first spend wins
        chain.mine_block()
        assert chain.contains(tx1.txid) and not chain.contains(tx2.txid)

    def test_duplicate_input_rejected(self):
        outpoint = OutPoint("aa" * 32, 0)
        with pytest.raises(InvalidTransaction):
            Transaction(
                inputs=(TxInput(outpoint), TxInput(outpoint)),
                outputs=(TxOutput(1, LockingScript.pay_to_address("btcx")),),
            )

    def test_no_outputs_rejected(self):
        with pytest.raises(InvalidTransaction):
            Transaction(inputs=(TxInput(OutPoint("aa" * 32, 0)),), outputs=())

    def test_negative_value_rejected(self):
        with pytest.raises(InvalidTransaction):
            TxOutput(-1, LockingScript.pay_to_address("btcx"))

    def test_overspend_rejected_by_builder(self):
        chain, coinbase = funded_chain()
        with pytest.raises(InvalidTransaction):
            build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                 ALICE.private, [(BOB.address(), 100_001)])

    def test_outpoint_index_bounds(self):
        chain, coinbase = funded_chain()
        with pytest.raises(InvalidTransaction):
            coinbase.outpoint(5)


class TestScripts:
    def test_p2pkh_witness(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private, [(BOB.address(), 50_000)])
        chain.submit(tx)

    def test_p2pkh_wrong_key_rejected(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  BOB.private, [(BOB.address(), 50_000)])
        with pytest.raises(InvalidTransaction):
            chain.submit(tx)

    def test_multisig_spend_requires_threshold(self):
        chain, coinbase = funded_chain()
        spec = MultisigSpec(2, (ALICE.public, BOB.public))
        fund = build_deposit(chain, coinbase, spec, 60_000)
        chain.submit(fund)
        chain.mine_block()
        spend = Transaction(
            inputs=(TxInput(fund.outpoint(0)),),
            outputs=(TxOutput(60_000,
                              LockingScript.pay_to_address(BOB.address())),),
        )
        digest = spend.sighash()
        under = spend.with_witnesses([
            Witness(signatures=(ALICE.private.sign(digest),))
        ])
        with pytest.raises(InvalidTransaction):
            chain.submit(under)
        full = spend.with_witnesses([Witness(signatures=(
            ALICE.private.sign(digest), BOB.private.sign(digest)))])
        chain.submit(full)

    def test_script_must_be_exactly_one_kind(self):
        with pytest.raises(InvalidTransaction):
            LockingScript()
        with pytest.raises(InvalidTransaction):
            LockingScript(p2pkh_address="btcx",
                          multisig=MultisigSpec(1, (ALICE.public,)))


def build_deposit(chain, coinbase, spec, value):
    unsigned = Transaction(
        inputs=(TxInput(coinbase.outpoint(0)),),
        outputs=(
            TxOutput(value, LockingScript.pay_to_multisig(spec)),
            TxOutput(100_000 - value,
                     LockingScript.pay_to_address(ALICE.address())),
        ),
    )
    witness = Witness(signatures=(ALICE.private.sign(unsigned.sighash()),),
                      public_key=ALICE.public)
    return unsigned.with_witnesses([witness])


class TestChain:
    def test_balance_tracking(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private,
                                  [(BOB.address(), 40_000),
                                   (ALICE.address(), 60_000)])
        chain.submit(tx)
        chain.mine_block()
        assert chain.balance(BOB.address()) == 40_000
        assert chain.balance(ALICE.address()) == 60_000

    def test_double_spend_in_mempool_rejected(self):
        chain, coinbase = funded_chain()
        tx1 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 1)])
        tx2 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 2)])
        chain.submit(tx1)
        with pytest.raises(DoubleSpend):
            chain.submit(tx2)

    def test_double_spend_after_confirmation_rejected(self):
        chain, coinbase = funded_chain()
        tx1 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 1)])
        chain.submit(tx1)
        chain.mine_block()
        tx2 = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                   ALICE.private, [(BOB.address(), 2)])
        with pytest.raises(DoubleSpend):
            chain.submit(tx2)

    def test_unknown_output_rejected(self):
        chain, _ = funded_chain()
        ghost = Transaction(
            inputs=(TxInput(OutPoint("ee" * 32, 0)),),
            outputs=(TxOutput(1, LockingScript.pay_to_address("btcx")),),
        )
        with pytest.raises(UnknownOutput):
            chain.submit(ghost)

    def test_submit_idempotent(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private, [(BOB.address(), 1)])
        assert chain.submit(tx) == chain.submit(tx)
        assert chain.mempool_size() == 1

    def test_confirmations_grow_with_blocks(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private, [(BOB.address(), 1)])
        chain.submit(tx)
        assert chain.confirmations(tx.txid) == 0
        chain.mine_block()
        assert chain.confirmations(tx.txid) == 1
        chain.mine_block()
        chain.mine_block()
        assert chain.confirmations(tx.txid) == 3

    def test_block_limit_leaves_overflow_queued(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer(
            [(coinbase.outpoint(0), 100_000)], ALICE.private,
            [(BOB.address(), 10_000), (ALICE.address(), 90_000)])
        chain.submit(tx)
        chain.mine_block()
        # two independent spends, block limit 1
        entries = chain.outputs_for(ALICE.address())
        spends = [
            build_p2pkh_transfer([(entry.outpoint, entry.value)],
                                 ALICE.private, [(BOB.address(), 1)])
            for entry in entries
        ]
        for spend in spends:
            chain.submit(spend)
        chain.mine_block(limit=1)
        assert chain.mempool_size() == len(spends) - 1

    def test_conservation_of_value(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private,
                                  [(BOB.address(), 30_000),
                                   (ALICE.address(), 70_000)])
        chain.submit(tx)
        chain.mine_block()
        assert chain.utxos.total_value() == chain.total_minted()

    def test_block_listener(self):
        chain, _ = funded_chain()
        seen = []
        chain.subscribe(seen.append)
        chain.mine_block()
        assert len(seen) == 1 and seen[0].height == 2


class TestCostMetric:
    def test_p2pkh_spend_cost(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private, [(BOB.address(), 1)])
        # one signature + one revealed pubkey = one pair.
        assert transaction_signatures(tx) == 1
        assert transaction_pubkeys(tx) == 1
        assert transaction_cost(tx) == 1.0

    def test_deposit_cost_is_one_plus_half_n(self):
        chain, coinbase = funded_chain()
        spec = MultisigSpec(2, (ALICE.public, BOB.public))
        fund = build_deposit(chain, coinbase, spec, 60_000)
        # 1 sig + 1 pubkey (input) + 2 pubkeys (multisig output) = 1 + n/2.
        assert transaction_cost(fund) == 1 + 2 / 2

    def test_blockchain_cost_sums(self):
        chain, coinbase = funded_chain()
        tx = build_p2pkh_transfer([(coinbase.outpoint(0), 100_000)],
                                  ALICE.private, [(BOB.address(), 1)])
        assert blockchain_cost([tx, tx]) == 2 * transaction_cost(tx)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=1_000), min_size=1,
                max_size=6))
def test_property_value_conservation(amounts):
    """Whatever sequence of sends happens, unspent value equals minted
    value (no transaction creates or destroys coins)."""
    chain = Blockchain()
    total = sum(amounts) + 1_000
    coinbase = chain.mint(LockingScript.pay_to_address(ALICE.address()), total)
    chain.mine_block()
    available = [(coinbase.outpoint(0), total)]
    for amount in amounts:
        outpoint, value = available.pop()
        tx = build_p2pkh_transfer(
            [(outpoint, value)], ALICE.private,
            [(BOB.address(), amount), (ALICE.address(), value - amount)])
        chain.submit(tx)
        chain.mine_block()
        available.append((tx.outpoint(1), value - amount))
    assert chain.utxos.total_value() == chain.total_minted()
