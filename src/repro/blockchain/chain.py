"""The blockchain: a block DAG with fork choice, a mempool, and a fee market.

The chain is no longer linear.  Blocks carry parent hashes, competing
branches coexist, and the *active* chain is chosen by heaviest-chain fork
choice (deepest tip wins; ties keep the first-seen branch, Bitcoin-style).
A reorg unwinds the UTXO set and confirmation heights block by block and
returns evicted non-coinbase transactions to the mempool, firing the
submit listeners so higher layers (gossip, :class:`AsyncBlockchainClient`)
re-broadcast orphaned settlements — the asynchronous-access safety claim
is exercised *under* reorgs, not just censorship.

Fees: a transaction's fee is ``inputs − outputs``.  ``mine_block`` selects
non-coinbase transactions by feerate under the block limit and collects
the fees into a fee coinbase whose ``fee_claim`` marks the value as moved,
not minted, so ``utxos.total_value() == total_minted()`` stays an exact
conservation invariant with fees in play.

First-spend-wins over outpoints — the primitive Teechain's PoPT mechanism
relies on — is enforced per-branch: at most one of two conflicting
settlements is ever confirmed on the active chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.blockchain.script import LockingScript
from repro.blockchain.transaction import (
    OutPoint,
    Transaction,
    TxOutput,
    make_coinbase,
)
from repro.blockchain.utxo import UTXOEntry, UTXOSet
from repro.crypto.hashing import merkle_root, sha256d
from repro.errors import (
    BlockchainError,
    DoubleSpend,
    InvalidTransaction,
    UnknownOutput,
)


@dataclass(frozen=True)
class Block:
    """A mined block.

    ``miner`` and ``nonce`` are part of the header preimage: without them
    two sibling blocks with the same parent, transactions, and timestamp
    would collide on ``block_hash``, silently corrupting fork bookkeeping.
    """

    height: int
    previous_hash: str
    transactions: Tuple[Transaction, ...]
    timestamp: float
    miner: str = ""
    nonce: int = 0

    @cached_property
    def block_hash(self) -> str:
        txids = [bytes.fromhex(tx.txid) for tx in self.transactions]
        header = (
            self.previous_hash.encode()
            + merkle_root(txids)
            + repr(self.timestamp).encode()
            + str(self.height).encode()
            + b"|" + self.miner.encode()
            + b"|" + str(self.nonce).encode()
        )
        return sha256d(header).hex()

    def __repr__(self) -> str:
        return (
            f"Block(height={self.height}, {len(self.transactions)} txs, "
            f"hash={self.block_hash[:12]}…)"
        )


GENESIS_HASH = "0" * 64

#: Where fees accrue when ``mine_block`` is called without a miner address.
DEFAULT_FEE_ADDRESS = "fee-sink"


@dataclass(frozen=True)
class ReorgEvent:
    """Emitted after the active chain switches branches.

    ``evicted`` are the formerly confirmed non-coinbase transactions that
    were returned to the mempool (and re-announced via the submit
    listeners); ``dropped`` are txids that could not be returned because
    the new branch conflicts with them (e.g. a double spend won)."""

    old_tip: str
    new_tip: str
    depth: int  # blocks unwound from the previously active chain
    evicted: Tuple[Transaction, ...]
    dropped: Tuple[str, ...]


class Blockchain:
    """Validating ledger with a mempool, fork choice, and a fee market.

    Lifecycle: ``submit`` validates a transaction against the UTXO set and
    current mempool and queues it; ``mine_block`` moves queued transactions
    into a block by feerate; ``receive_block`` attaches a peer-mined block
    and runs fork choice.  ``confirmations(txid)`` counts depth *on the
    active chain* — a reorg can take it back to zero.  A transaction that
    conflicts with anything already accepted raises :class:`DoubleSpend` —
    callers distinguishing "my settlement lost the race" depend on that.
    """

    def __init__(self) -> None:
        self.utxos = UTXOSet()
        self.blocks: List[Block] = []  # the active chain, genesis first
        self.block_limit: Optional[int] = None
        self.fee_address: str = DEFAULT_FEE_ADDRESS
        self._blocks_by_hash: Dict[str, Block] = {}
        self._children: Dict[str, List[str]] = {}
        self._arrival: Dict[str, int] = {}
        self._arrival_counter = 0
        self._tips: Set[str] = set()
        self._invalid: Set[str] = set()
        self._orphan_blocks: Dict[str, List[Block]] = {}
        self._mempool: List[Transaction] = []
        self._mempool_ids: Set[str] = set()
        self._mempool_spends: Dict[OutPoint, str] = {}
        self._mempool_outputs: Dict[OutPoint, TxOutput] = {}
        self._mempool_fees: Dict[str, int] = {}
        self._tx_height: Dict[str, int] = {}
        self._coinbase_nonce = 0
        self._block_nonce = 0
        self.reorg_count = 0
        self.orphaned_tx_count = 0
        self._listeners: List[Callable[[Block], None]] = []
        self._submit_listeners: List[Callable[[Transaction], None]] = []
        self._reorg_listeners: List[Callable[[ReorgEvent], None]] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height of the active tip (0 = no blocks yet)."""
        return len(self.blocks)

    @property
    def tip_hash(self) -> str:
        return self.blocks[-1].block_hash if self.blocks else GENESIS_HASH

    def block_by_hash(self, block_hash: str) -> Optional[Block]:
        return self._blocks_by_hash.get(block_hash)

    def mempool_size(self) -> int:
        return len(self._mempool)

    def in_mempool(self, txid: str) -> bool:
        return txid in self._mempool_ids

    def contains(self, txid: str) -> bool:
        """Whether the transaction is confirmed on the active chain."""
        return txid in self._tx_height

    def confirmations(self, txid: str) -> int:
        """Active-chain blocks confirming ``txid`` (1 = in the tip block).

        Fork-aware: a transaction on an abandoned branch reports 0 — its
        confirmations were undone by the reorg."""
        height = self._tx_height.get(txid)
        if height is None:
            return 0
        return self.height - height + 1

    def balance(self, address: str) -> int:
        return self.utxos.balance(address)

    def outputs_for(self, address: str) -> List[UTXOEntry]:
        return self.utxos.outputs_for(address)

    def total_minted(self) -> int:
        """Net value created by active-chain coinbases (conservation checks).

        Fee-collection coinbases mark their output value as ``fee_claim`` —
        value *moved* from fee-paying transactions, not created — so the
        invariant ``utxos.total_value() == total_minted()`` holds exactly
        with fees in play, and re-holds after any reorg because only the
        active chain is summed."""
        minted = 0
        for block in self.blocks:
            for transaction in block.transactions:
                if transaction.is_coinbase:
                    minted += (
                        transaction.total_output_value() - transaction.fee_claim
                    )
        return minted

    def fees_collected(self) -> int:
        """Total fees claimed by active-chain coinbases."""
        return sum(
            transaction.fee_claim
            for block in self.blocks
            for transaction in block.transactions
            if transaction.is_coinbase
        )

    def feerate_estimate(self, limit: Optional[int] = None) -> float:
        """Marginal feerate (value per vsize byte) to enter the next block.

        With a block limit of N, that is the feerate of the N-th best
        queued transaction; 0.0 when the mempool is uncongested or no
        limit applies.  Reads go through the async client so an eclipsed
        node cannot estimate either."""
        limit = limit if limit is not None else self.block_limit
        if limit is None:
            return 0.0
        rates = sorted(
            (
                self._mempool_fees.get(tx.txid, 0) / max(tx.vsize, 1)
                for tx in self._mempool
                if not tx.is_coinbase
            ),
            reverse=True,
        )
        if len(rates) < limit:
            return 0.0
        return rates[limit - 1]

    # ------------------------------------------------------------------
    # Validation and submission
    # ------------------------------------------------------------------

    def _resolve_input(self, outpoint: OutPoint) -> TxOutput:
        """The output an input spends: confirmed UTXO or mempool output."""
        try:
            return self.utxos.get(outpoint).output
        except UnknownOutput:
            output = self._mempool_outputs.get(outpoint)
            if output is None:
                raise
            return output

    def validate(self, transaction: Transaction) -> int:
        """Full validation against the confirmed UTXO set and the mempool.

        Inputs may spend outputs of queued (unconfirmed) transactions —
        chains of transactions happen naturally when a reorg returns a
        funding transaction and its settlement to the mempool together.
        Raises :class:`InvalidTransaction` / :class:`DoubleSpend` /
        :class:`UnknownOutput`; returns the transaction's fee on success.
        """
        if transaction.is_coinbase:
            raise InvalidTransaction("coinbase can only be created by the miner")
        digest = transaction.sighash()
        input_value = 0
        for tx_input in transaction.inputs:
            if tx_input.outpoint in self._mempool_spends:
                raise DoubleSpend(
                    f"{tx_input.outpoint} already spent in mempool by "
                    f"{self._mempool_spends[tx_input.outpoint][:12]}…"
                )
            output = self._resolve_input(tx_input.outpoint)  # raises if spent
            if not output.script.verify_witness(digest, tx_input.witness):
                raise InvalidTransaction(
                    f"witness for {tx_input.outpoint} does not satisfy its script"
                )
            input_value += output.value
        if transaction.total_output_value() > input_value:
            raise InvalidTransaction(
                f"outputs ({transaction.total_output_value()}) exceed "
                f"inputs ({input_value})"
            )
        return input_value - transaction.total_output_value()

    def _enqueue(self, transaction: Transaction, fee: int,
                 front: bool = False) -> None:
        txid = transaction.txid
        if front:
            self._mempool.insert(0, transaction)
        else:
            self._mempool.append(transaction)
        self._mempool_ids.add(txid)
        self._mempool_fees[txid] = fee
        for outpoint in transaction.spent_outpoints():
            self._mempool_spends[outpoint] = txid
        for index in range(len(transaction.outputs)):
            self._mempool_outputs[transaction.outpoint(index)] = (
                transaction.outputs[index]
            )
        for listener in list(self._submit_listeners):
            listener(transaction)

    def _drop_from_mempool(self, txid: str) -> None:
        for position, queued in enumerate(self._mempool):
            if queued.txid == txid:
                transaction = self._mempool.pop(position)
                break
        else:
            return
        self._mempool_ids.discard(txid)
        self._mempool_fees.pop(txid, None)
        for outpoint in transaction.spent_outpoints():
            if self._mempool_spends.get(outpoint) == txid:
                del self._mempool_spends[outpoint]
        for index in range(len(transaction.outputs)):
            self._mempool_outputs.pop(transaction.outpoint(index), None)

    def submit(self, transaction: Transaction) -> str:
        """Validate and enqueue a transaction.  Idempotent on txid.

        Coinbase endowments are accepted too (gossip of a peer's ``mint``
        during simulation bootstrap) — but never fee-claim coinbases,
        which only miners construct."""
        txid = transaction.txid
        if txid in self._mempool_ids or txid in self._tx_height:
            return txid
        if transaction.is_coinbase:
            if transaction.fee_claim:
                raise InvalidTransaction(
                    "fee-claim coinbases are built by the miner, not submitted"
                )
            self._enqueue(transaction, fee=0)
            return txid
        fee = self.validate(transaction)
        self._enqueue(transaction, fee=fee)
        return txid

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    def mint(self, script: LockingScript, value: int) -> Transaction:
        """Queue a coinbase minting ``value`` into ``script``.

        Simulation bootstrap: endows accounts before an experiment.  The
        coinbase is included in the next mined block.  Fires the submit
        listeners like any other accepted transaction, so a live daemon's
        minted endowment gossips to its peers instead of silently diverging
        the replicas until the next block announcement."""
        self._coinbase_nonce += 1
        coinbase = make_coinbase(script, value, nonce=self._coinbase_nonce)
        self._enqueue(coinbase, fee=0, front=True)
        return coinbase

    def _select_for_block(
        self, limit: Optional[int]
    ) -> Tuple[List[Transaction], int]:
        """Pick block contents: coinbases first (limit-exempt endowments),
        then non-coinbase transactions by feerate under ``limit``, admitting
        a transaction only once its inputs are confirmed or created by an
        already-selected transaction (topological order within the block)."""
        coinbases = [tx for tx in self._mempool if tx.is_coinbase]
        arrival = {tx.txid: position for position, tx in enumerate(self._mempool)}
        candidates = sorted(
            (tx for tx in self._mempool if not tx.is_coinbase),
            key=lambda tx: (
                -(self._mempool_fees.get(tx.txid, 0) / max(tx.vsize, 1)),
                arrival[tx.txid],
            ),
        )
        selected: List[Transaction] = list(coinbases)
        selected_outputs: Set[OutPoint] = {
            tx.outpoint(index)
            for tx in coinbases
            for index in range(len(tx.outputs))
        }
        picked: List[Transaction] = []
        total_fee = 0
        progress = True
        while progress and (limit is None or len(picked) < limit):
            progress = False
            for candidate in candidates:
                if limit is not None and len(picked) >= limit:
                    break
                if candidate in picked:
                    continue
                if all(
                    outpoint in self.utxos or outpoint in selected_outputs
                    for outpoint in candidate.spent_outpoints()
                ):
                    picked.append(candidate)
                    total_fee += self._mempool_fees.get(candidate.txid, 0)
                    for index in range(len(candidate.outputs)):
                        selected_outputs.add(candidate.outpoint(index))
                    progress = True
        selected.extend(picked)
        return selected, total_fee

    def mine_block(
        self,
        timestamp: float = 0.0,
        limit: Optional[int] = None,
        parent: Optional[str] = None,
        miner: Optional[str] = None,
        transactions: Optional[Sequence[Transaction]] = None,
    ) -> Block:
        """Mine queued transactions into a new block.

        ``limit`` caps non-coinbase transactions per block (endowment
        coinbases are exempt); queued overflow stays, modelling congestion.
        ``parent`` mines on a non-tip block — the way forks are built: the
        chain is checked out to that branch (a reorg, with evictions) and
        the block attached there; fork choice then decides which branch
        stays active.  ``miner`` is the fee-collection address and part of
        the block's identity.  ``transactions`` overrides mempool selection
        entirely (deliberately empty or adversarial competing blocks).
        """
        old_tip = self.tip_hash
        old_chain = [block.block_hash for block in self.blocks]
        evicted: List[Transaction] = []
        dropped: List[str] = []
        parent_hash = parent if parent is not None else self.tip_hash
        if parent_hash != GENESIS_HASH and parent_hash not in self._blocks_by_hash:
            raise BlockchainError(f"unknown parent block {parent_hash[:12]}…")
        if parent_hash != self.tip_hash:
            self._checkout(parent_hash, evicted, dropped)
        if transactions is not None:
            selected = list(transactions)
            total_fee = 0
        else:
            effective_limit = limit if limit is not None else self.block_limit
            selected, total_fee = self._select_for_block(effective_limit)
        miner_address = miner if miner is not None else self.fee_address
        if total_fee > 0:
            self._coinbase_nonce += 1
            fee_coinbase = make_coinbase(
                LockingScript.pay_to_address(miner_address),
                total_fee,
                nonce=self._coinbase_nonce,
                fee_claim=total_fee,
            )
            selected.insert(0, fee_coinbase)
        self._block_nonce += 1
        block = Block(
            height=self.height + 1,
            previous_hash=self.tip_hash,
            transactions=tuple(selected),
            timestamp=timestamp,
            miner=miner_address,
            nonce=self._block_nonce,
        )
        self._register_block(block)
        self._connect_block(block)
        self._activate_best(evicted, dropped)
        self._prune_mempool()
        self._emit_reorg(old_tip, old_chain, evicted, dropped)
        for listener in list(self._listeners):
            listener(block)
        return block

    def receive_block(self, block: Block) -> str:
        """Attach a peer-mined block and run fork choice.

        Returns ``"known"`` (already have it), ``"orphan"`` (parent unknown
        — the caller should fetch the parent from whoever sent this), or
        ``"connected"``.  Connecting may reorganise the active chain."""
        block_hash = block.block_hash
        if block_hash in self._blocks_by_hash or block_hash in self._invalid:
            return "known"
        if (
            block.previous_hash != GENESIS_HASH
            and block.previous_hash not in self._blocks_by_hash
        ):
            self._orphan_blocks.setdefault(block.previous_hash, []).append(block)
            return "orphan"
        old_tip = self.tip_hash
        old_chain = [b.block_hash for b in self.blocks]
        evicted: List[Transaction] = []
        dropped: List[str] = []
        self._attach_recursive(block)
        self._activate_best(evicted, dropped)
        self._prune_mempool()
        self._emit_reorg(old_tip, old_chain, evicted, dropped)
        return "connected"

    # ------------------------------------------------------------------
    # DAG plumbing: attach, connect/disconnect, checkout, fork choice
    # ------------------------------------------------------------------

    def _register_block(self, block: Block) -> None:
        block_hash = block.block_hash
        parent = block.previous_hash
        expected_height = (
            1 if parent == GENESIS_HASH else self._blocks_by_hash[parent].height + 1
        )
        if block.height != expected_height:
            raise BlockchainError(
                f"block {block_hash[:12]}… claims height {block.height}, "
                f"parent implies {expected_height}"
            )
        self._blocks_by_hash[block_hash] = block
        self._children.setdefault(parent, []).append(block_hash)
        self._arrival[block_hash] = self._arrival_counter
        self._arrival_counter += 1
        self._tips.add(block_hash)
        self._tips.discard(parent)

    def _attach_recursive(self, block: Block) -> None:
        self._register_block(block)
        for waiting in self._orphan_blocks.pop(block.block_hash, []):
            if waiting.block_hash not in self._blocks_by_hash:
                self._attach_recursive(waiting)

    def _connect_block(self, block: Block) -> None:
        """Apply a block on top of the current active tip (validates)."""
        if block.previous_hash != self.tip_hash:
            raise BlockchainError(
                f"cannot connect {block.block_hash[:12]}… onto "
                f"{self.tip_hash[:12]}…"
            )
        height = self.height + 1
        fees_paid = 0
        fees_claimed = 0
        applied: List[Transaction] = []
        try:
            for transaction in block.transactions:
                if transaction.is_coinbase:
                    fees_claimed += transaction.fee_claim
                else:
                    input_value = sum(
                        self.utxos.get(tx_input.outpoint).value
                        for tx_input in transaction.inputs
                    )
                    fees_paid += input_value - transaction.total_output_value()
                self.utxos.apply_transaction(transaction, height)
                applied.append(transaction)
            if fees_claimed > fees_paid:
                raise InvalidTransaction(
                    f"block claims {fees_claimed} in fees but only "
                    f"{fees_paid} were paid"
                )
        except BlockchainError:
            for transaction in reversed(applied):
                self.utxos.unapply_transaction(transaction)
            raise
        for transaction in block.transactions:
            self._tx_height[transaction.txid] = height
        self.blocks.append(block)

    def _disconnect_block(self) -> Block:
        """Unwind the active tip block (reorg step)."""
        block = self.blocks.pop()
        for transaction in reversed(block.transactions):
            self.utxos.unapply_transaction(transaction)
            self._tx_height.pop(transaction.txid, None)
        return block

    def _chain_to(self, tip_hash: str) -> List[Block]:
        chain: List[Block] = []
        cursor = tip_hash
        while cursor != GENESIS_HASH:
            block = self._blocks_by_hash[cursor]
            chain.append(block)
            cursor = block.previous_hash
        chain.reverse()
        return chain

    def _checkout(
        self,
        target_hash: str,
        evicted: List[Transaction],
        dropped: List[str],
    ) -> bool:
        """Switch the active chain to end at ``target_hash``.

        Returns False (and restores the previous chain) if a block on the
        new branch fails validation; the bad block and its descendants are
        marked invalid.  Evicted transactions that were returned to the
        mempool are appended to ``evicted``; those the new branch made
        invalid go to ``dropped``."""
        new_chain = self._chain_to(target_hash)
        prefix = 0
        while (
            prefix < len(new_chain)
            and prefix < len(self.blocks)
            and new_chain[prefix].block_hash == self.blocks[prefix].block_hash
        ):
            prefix += 1
        unwound = list(self.blocks[prefix:])  # oldest first
        for _ in range(len(self.blocks) - prefix):
            self._disconnect_block()
        connected: List[Block] = []
        for block in new_chain[prefix:]:
            try:
                self._connect_block(block)
            except BlockchainError:
                for _ in connected:
                    self._disconnect_block()
                for old_block in unwound:
                    self._connect_block(old_block)  # was valid before
                self._invalidate(block.block_hash)
                return False
            connected.append(block)
        # Return evicted transactions to the mempool, oldest block first so
        # parents precede children; invalid ones (the new branch spent their
        # inputs) are dropped.  Fee-claim coinbases never return — the fees
        # re-accrue when the paying transactions are mined again.
        for block in unwound:
            for transaction in block.transactions:
                txid = transaction.txid
                if txid in self._tx_height or txid in self._mempool_ids:
                    continue  # re-included on the new branch / already queued
                if transaction.is_coinbase:
                    if transaction.fee_claim:
                        continue
                    self._enqueue(transaction, fee=0, front=True)
                    evicted.append(transaction)
                    continue
                try:
                    fee = self.validate(transaction)
                except BlockchainError:
                    dropped.append(txid)
                    continue
                self._enqueue(transaction, fee=fee)
                evicted.append(transaction)
        return True

    def _invalidate(self, block_hash: str) -> None:
        queue = [block_hash]
        while queue:
            cursor = queue.pop()
            self._invalid.add(cursor)
            self._tips.discard(cursor)
            self._blocks_by_hash.pop(cursor, None)
            self._arrival.pop(cursor, None)
            queue.extend(self._children.pop(cursor, []))

    def _best_tip(self) -> str:
        best = self.tip_hash
        best_height = self.height
        best_arrival = self._arrival.get(best, -1)
        for tip in self._tips:
            if tip in self._invalid:
                continue
            block = self._blocks_by_hash[tip]
            arrival = self._arrival[tip]
            if block.height > best_height or (
                block.height == best_height and arrival < best_arrival
            ):
                best = tip
                best_height = block.height
                best_arrival = arrival
        return best

    def _activate_best(
        self, evicted: List[Transaction], dropped: List[str]
    ) -> None:
        while True:
            best = self._best_tip()
            if best == self.tip_hash:
                return
            if self._checkout(best, evicted, dropped):
                return

    def _prune_mempool(self) -> None:
        """Drop queued transactions invalidated by newly connected blocks:
        already confirmed, spending an output a confirmed transaction took
        first, or referencing outputs that no longer exist (cascades)."""
        changed = True
        while changed:
            changed = False
            for transaction in list(self._mempool):
                txid = transaction.txid
                if txid in self._tx_height:
                    self._drop_from_mempool(txid)
                    changed = True
                    continue
                if transaction.is_coinbase:
                    continue
                for outpoint in transaction.spent_outpoints():
                    spender = self.utxos.spender_of(outpoint)
                    if spender is not None and spender != txid:
                        self._drop_from_mempool(txid)
                        changed = True
                        break
                    if (
                        outpoint not in self.utxos
                        and spender is None
                        and outpoint not in self._mempool_outputs
                    ):
                        self._drop_from_mempool(txid)
                        changed = True
                        break

    def _emit_reorg(
        self,
        old_tip: str,
        old_chain: List[str],
        evicted: List[Transaction],
        dropped: List[str],
    ) -> None:
        new_tip = self.tip_hash
        active = {block.block_hash for block in self.blocks}
        if old_tip == GENESIS_HASH or old_tip in active:
            return  # pure extension (or first blocks): not a reorg
        depth = sum(1 for block_hash in old_chain if block_hash not in active)
        self.reorg_count += 1
        self.orphaned_tx_count += len(evicted) + len(dropped)
        event = ReorgEvent(
            old_tip=old_tip,
            new_tip=new_tip,
            depth=depth,
            evicted=tuple(evicted),
            dropped=tuple(dropped),
        )
        for listener in list(self._reorg_listeners):
            listener(event)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------

    def subscribe(self, listener: Callable[[Block], None]) -> None:
        """Register a callback invoked after each locally mined block."""
        self._listeners.append(listener)

    def subscribe_submit(self, listener: Callable[[Transaction], None]) -> None:
        """Register a callback invoked after each accepted submission.

        Fires only for *newly* accepted transactions (idempotent re-submits
        are silent), which is what mempool gossip between replicas needs —
        an echo of a transaction a peer relayed must not re-announce it.
        Also fires when a reorg returns an evicted transaction to the
        mempool: that is the orphan re-broadcast hook."""
        self._submit_listeners.append(listener)

    def subscribe_reorg(self, listener: Callable[[ReorgEvent], None]) -> None:
        """Register a callback invoked after the active chain switches."""
        self._reorg_listeners.append(listener)

    def __repr__(self) -> str:
        return (
            f"Blockchain(height={self.height}, mempool={len(self._mempool)}, "
            f"utxos={len(self.utxos)}, forks={len(self._tips)})"
        )
