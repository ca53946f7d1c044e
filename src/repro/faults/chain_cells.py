"""Chain-realism fault cells: reorgs, fork double spends, fee spikes.

The crash matrix (:mod:`repro.faults.matrix`) exercises Algorithm 2
against *participant* failures; these cells exercise the protocol against
*chain* failures — the asynchronous-access adversary of §2.2 who cannot
forge blocks but can reorder which branch of a fork wins.  Each cell
drives a real two-party channel lifecycle on the DES, makes the chain
misbehave (a deep reorg under a confirmed settlement, a double-spend
winning at a fork, a fee spike crowding a settlement out of blocks), lets
the stack converge, and checks the invariants that must survive:

* **conservation** — ``utxos.total_value() == total_minted()`` exactly,
  with fees in play (fee coinbases claim moved value, they never mint);
* **first-spend-wins** — at most one spender of any outpoint is ever
  confirmed on the active chain (the property PoPTs rely on);
* **eventual settlement** — an orphaned settlement is re-broadcast from
  the mempool and confirms on the winning branch with the same txid;
* **payout integrity** — the settled on-chain balances equal the final
  channel balances, minus exactly the fees that were paid, which are
  claimed by miners and nobody else.

Every cell returns a :class:`ChainCellResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.blockchain.script import LockingScript
from repro.blockchain.transaction import (
    Transaction,
    TxInput,
    TxOutput,
    Witness,
)
from repro.core.node import TeechainNetwork, TeechainNode


@dataclass
class ChainCellResult:
    """Outcome of one chain-realism cell."""

    name: str
    reorg_depth: int
    violations: List[str] = field(default_factory=list)
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "reorg_depth": self.reorg_depth,
            "violations": list(self.violations), "ok": self.ok,
            "details": dict(self.details),
        }


def _check_conservation(result: ChainCellResult,
                        network: TeechainNetwork) -> None:
    chain = network.chain
    utxo_total = chain.utxos.total_value()
    minted = chain.total_minted()
    if utxo_total != minted:
        result.violations.append(
            f"conservation broken: UTXO total {utxo_total} != "
            f"net minted {minted}"
        )
    result.details["utxo_total"] = utxo_total
    result.details["total_minted"] = minted
    result.details["fees_collected"] = chain.fees_collected()


def _channel_pair(funds: int, deposit: int):
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=funds)
    bob = network.create_node("bob", funds=funds)
    channel = alice.open_channel(bob)
    record_a = alice.create_deposit(deposit)
    alice.approve_and_associate(bob, record_a, channel)
    record_b = bob.create_deposit(deposit)
    bob.approve_and_associate(alice, record_b, channel)
    return network, alice, bob, channel


def _fork_from(network: TeechainNetwork, parent_hash: str,
               length: int) -> str:
    """Mine ``length`` deliberately empty blocks as a competing branch
    rooted at ``parent_hash``; returns the fork's tip hash.  Empty bodies
    keep the competing miner from simply re-confirming the very
    transactions the cell wants orphaned."""
    chain = network.chain
    cursor = parent_hash
    for _ in range(length):
        block = chain.mine_block(timestamp=network.scheduler.now,
                                 parent=cursor, transactions=())
        cursor = block.block_hash
    return cursor


def run_settlement_reorg_cell(*, depth: int = 2, funds: int = 100_000,
                              deposit: int = 40_000,
                              payments: int = 10,
                              amount: int = 500) -> ChainCellResult:
    """Settle a channel, then orphan the settlement under a depth-``depth``
    reorg.  The evicted settlement must return to the mempool, re-broadcast
    (receipt lifecycle), and re-confirm on the winning branch — same txid,
    same payouts, value conserved throughout."""
    result = ChainCellResult(name="settlement_reorg", reorg_depth=depth)
    network, alice, bob, channel = _channel_pair(funds, deposit)
    chain = network.chain

    for _ in range(payments):
        alice.pay(channel, amount)
    settlement = alice.settle(channel)
    if settlement is None:
        result.violations.append("settlement unexpectedly off-chain")
        return result
    network.run()          # deliver the broadcast to the mempool
    network.mine()         # confirm the settlement on branch A
    # Root the fork ``depth`` blocks below the tip, so the reorg unwinds
    # the settlement block and (depth-1) blocks of history under it.
    fork_parent = chain.blocks[-(depth + 1)].block_hash

    if chain.confirmations(settlement.txid) < 1:
        result.violations.append("settlement did not confirm on branch A")

    # A competing miner extends the pre-settlement block past our tip:
    # depth blocks are unwound, depth+1 connected, the settlement evicted.
    _fork_from(network, fork_parent, depth + 1)
    network.run()          # let the access layer re-broadcast the eviction

    if chain.reorg_count < 1:
        result.violations.append("no reorg was recorded")
    receipt = alice.client._receipts_by_txid.get(settlement.txid)
    if receipt is None or receipt.rebroadcasts < 1:
        result.violations.append(
            "orphaned settlement was never re-broadcast by the client")

    network.mine()         # winning branch mines the re-broadcast mempool
    confirmations = chain.confirmations(settlement.txid)
    if confirmations < 1:
        result.violations.append(
            f"settlement not re-confirmed after reorg "
            f"(confirmations={confirmations})"
        )

    expected_alice = funds - deposit + (deposit - payments * amount)
    expected_bob = funds - deposit + (deposit + payments * amount)
    balance_a = alice.onchain_balance()
    balance_b = bob.onchain_balance()
    if (balance_a, balance_b) != (expected_alice, expected_bob):
        result.violations.append(
            f"settled balances ({balance_a}, {balance_b}) != expected "
            f"({expected_alice}, {expected_bob})"
        )
    _check_conservation(result, network)
    result.details.update({
        "settlement_txid": settlement.txid,
        "confirmations": confirmations,
        "reorgs": chain.reorg_count,
        "rebroadcasts": receipt.rebroadcasts if receipt else 0,
    })
    return result


def _self_spend(node: TeechainNode, outpoint, value: int) -> Transaction:
    """A signed transaction returning ``outpoint`` to the node's own
    wallet — the classic double-spend arm raced against a deposit."""
    unsigned = Transaction(
        inputs=(TxInput(outpoint),),
        outputs=(TxOutput(value, LockingScript.pay_to_address(node.address)),),
    )
    witness = Witness(signatures=(node.wallet.private.sign(unsigned.sighash()),),
                      public_key=node.wallet.public)
    return unsigned.with_witnesses([witness])


def run_deposit_double_spend_fork_cell(*, funds: int = 100_000,
                                       deposit: int = 40_000
                                       ) -> ChainCellResult:
    """Race a funding deposit against a double spend of its own input at
    a fork.  The branch carrying the conflicting spend wins; the deposit
    must be dropped (not returned to the mempool — its input is gone), and
    exactly one spender of the contested outpoint stays confirmed."""
    result = ChainCellResult(name="deposit_double_spend_fork", reorg_depth=1)
    network = TeechainNetwork()
    alice = network.create_node("alice", funds=funds)
    network.create_node("bob", funds=funds)
    chain = network.chain

    fork_parent = chain.tip_hash
    record = alice.create_deposit(deposit)  # broadcast + mined on branch A
    funding_txid = record.outpoint.txid
    funding = chain.block_by_hash(chain.tip_hash).transactions[-1]
    contested = funding.inputs[0].outpoint

    if chain.confirmations(funding_txid) < 1:
        result.violations.append("deposit did not confirm on branch A")

    # The conflicting spend returns the whole contested output to alice
    # (zero fee, like the funding it races — the fork decides, not price).
    rival = _self_spend(alice, contested, funding.total_output_value())

    # Competing branch: rival confirmed instead of the funding tx, then
    # one more block so the fork outweighs branch A.
    rival_block = chain.mine_block(timestamp=network.scheduler.now,
                                   parent=fork_parent,
                                   transactions=(rival,))
    _fork_from(network, rival_block.block_hash, 1)
    network.run()

    if chain.confirmations(funding_txid) != 0:
        result.violations.append(
            "orphaned deposit still reports confirmations on the new branch")
    if chain.in_mempool(funding_txid):
        result.violations.append(
            "conflicted deposit returned to the mempool — it can never "
            "confirm and would wedge the queue")
    spender = chain.utxos.spender_of(contested)
    if spender != rival.txid:
        result.violations.append(
            f"contested outpoint spent by {spender!r}, expected the rival")
    if chain.contains(funding_txid) and chain.contains(rival.txid):
        result.violations.append(
            "both arms of the double spend confirmed — first-spend-wins "
            "broken")
    receipt = alice.client._receipts_by_txid.get(funding_txid)
    if receipt is not None and receipt.rejected is None:
        result.violations.append(
            "client receipt for the conflicted deposit was never rejected")

    # The deposit was never associated to a channel (it lost at depth 1,
    # below any sane confirmation threshold), so alice keeps everything.
    balance = alice.onchain_balance()
    if balance != funds:
        result.violations.append(
            f"alice's wallet is {balance}, expected {funds} after the "
            f"double spend returned her funds")
    _check_conservation(result, network)
    result.details.update({
        "funding_txid": funding_txid,
        "rival_txid": rival.txid,
        "reorgs": chain.reorg_count,
    })
    return result


def run_fee_spike_deferral_cell(*, funds: int = 100_000,
                                deposit: int = 40_000,
                                payments: int = 10, amount: int = 500,
                                block_limit: int = 2,
                                whale_txs: int = 4,
                                whale_fee: int = 2_000) -> ChainCellResult:
    """A fee spike under a binding block limit crowds a settlement out of
    the next block(s); it must confirm once the spike drains, and every
    fee paid must be claimed by a miner coinbase — none minted, none lost.
    """
    result = ChainCellResult(name="fee_spike_deferral", reorg_depth=0)
    network, alice, bob, channel = _channel_pair(funds, deposit)
    chain = network.chain
    chain.block_limit = block_limit
    whale = network.create_node("whale", funds=funds)

    for _ in range(payments):
        alice.pay(channel, amount)
    settlement = alice.settle(channel)
    if settlement is None:
        result.violations.append("settlement unexpectedly off-chain")
        return result
    network.run()
    if not chain.in_mempool(settlement.txid):
        result.violations.append("settlement never reached the mempool")

    # The spike: a chain of self-spends, each offering a fee that
    # out-bids the (zero-fee) settlement many times over.  Chaining off
    # one wallet output also exercises in-mempool parent resolution.
    entry = chain.outputs_for(whale.address)[0]
    outpoint, value = entry.outpoint, entry.value
    for _ in range(whale_txs):
        value -= whale_fee
        spend = Transaction(
            inputs=(TxInput(outpoint),),
            outputs=(TxOutput(value,
                              LockingScript.pay_to_address(whale.address)),),
        )
        witness = Witness(
            signatures=(whale.wallet.private.sign(spend.sighash()),),
            public_key=whale.wallet.public,
        )
        whale.client.broadcast(spend.with_witnesses([witness]))
        outpoint = spend.outpoint(0)
    network.run()

    estimate = chain.feerate_estimate()
    if estimate <= 0.0:
        result.violations.append(
            "feerate estimate shows no congestion despite the spike")

    blocks_deferred = 0
    network.mine()
    if chain.contains(settlement.txid):
        result.violations.append(
            "settlement entered the first spike block — the fee market "
            "did not defer it")
    while not chain.contains(settlement.txid):
        if blocks_deferred > whale_txs + 2:
            result.violations.append(
                "settlement never confirmed after the spike drained")
            break
        network.mine()
        blocks_deferred += 1

    # The zero-fee settlement is priced below every spike transaction, so
    # by the time it confirms the whole spike has been mined — and every
    # unit of fee it offered must sit in exactly one miner coinbase.
    fees_collected = chain.fees_collected()
    if fees_collected != whale_txs * whale_fee:
        result.violations.append(
            f"miners claimed {fees_collected} in fees, expected "
            f"{whale_txs * whale_fee}"
        )
    _check_conservation(result, network)
    result.details.update({
        "settlement_txid": settlement.txid,
        "blocks_deferred": blocks_deferred,
        "feerate_estimate": estimate,
        "whale_fee_total": whale_txs * whale_fee,
    })
    return result
