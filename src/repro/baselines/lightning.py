"""Lightning Network baseline.

:class:`LightningChannel` is an *executable* model of an LN channel over
our simulated blockchain: a 2-of-2 funding output, per-state commitment
transactions, revocation of old states, and the **synchronous justice
window**: when a revoked commitment appears on chain, the victim has τ
blocks to land a justice transaction.  This is the mechanism whose
synchrony assumption Teechain removes, and the security example and
attack tests drive it directly (delay the justice transaction past the
window → theft succeeds; same attack against Teechain → fails).

The module constants are what the paper measured for LND (§7.2, Tables
1, 2 and 4).  Fig. 4's and §7.3's LN lines (1.5 round trips per hop) come
from :class:`~repro.bench.timing.MultihopTimingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.blockchain.chain import Blockchain
from repro.blockchain.script import LockingScript, Witness
from repro.blockchain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
)
from repro.crypto.keys import KeyPair
from repro.crypto.multisig import MultisigSpec
from repro.errors import PaymentError, ProtocolError

# Paper-measured LND characteristics (§7.2, Table 1 & 2; Fig. 4).
LN_MAX_THROUGHPUT = 1_000            # tx/s, client-side-batched LND cap
LN_PAYMENT_LATENCY = 0.387           # seconds (99th: 0.420)
LN_CHANNEL_OPEN_SECONDS = 3_600.0    # Table 2: 3,600,000 ms
LN_ONCHAIN_TXS_PER_CHANNEL = 4       # Table 4
LN_ONCHAIN_COST_PER_CHANNEL = 6.0    # Table 4 (pubkey+signature pairs)


@dataclass
class CommitmentState:
    """One channel state: balances and its commitment transaction."""

    index: int
    balance_a: int
    balance_b: int
    transaction: Transaction


class LightningChannel:
    """Executable LN channel between parties A and B.

    Simplifications relative to LND that do not affect the property under
    study: a single symmetric commitment per state (rather than one per
    party), and a justice transaction that sweeps the entire channel (as
    in LN).  The synchrony-critical machinery — revoked states, the
    τ-block reaction window, first-spend conflict — is exact.
    """

    def __init__(self, chain: Blockchain, party_a: KeyPair, party_b: KeyPair,
                 funding_a: int, funding_b: int,
                 justice_window_blocks: int = 144) -> None:
        self.chain = chain
        self.party_a = party_a
        self.party_b = party_b
        self.justice_window = justice_window_blocks
        self.funding_spec = MultisigSpec(
            2, tuple(sorted((party_a.public, party_b.public),
                            key=lambda key: key.to_bytes()))
        )
        self.funding_tx: Optional[Transaction] = None
        self.states: List[CommitmentState] = []
        self.revoked_txids: Set[str] = set()
        self._initial = (funding_a, funding_b)

    # -- lifecycle ---------------------------------------------------------

    def open(self, funding_outpoints: List[Tuple[OutPoint, int]],
             funder: KeyPair) -> Transaction:
        """Broadcast the funding transaction.  The channel is usable after
        six confirmations (the 60-minute wait of Table 2)."""
        total = sum(value for _, value in funding_outpoints)
        capacity = sum(self._initial)
        if total < capacity:
            raise PaymentError(
                f"funding inputs ({total}) below capacity ({capacity})"
            )
        outputs = [TxOutput(capacity,
                            LockingScript.pay_to_multisig(self.funding_spec))]
        if total > capacity:
            outputs.append(TxOutput(
                total - capacity,
                LockingScript.pay_to_address(funder.address()),
            ))
        unsigned = Transaction(
            inputs=tuple(TxInput(outpoint) for outpoint, _ in funding_outpoints),
            outputs=tuple(outputs),
        )
        digest = unsigned.sighash()
        witness = Witness(signatures=(funder.private.sign(digest),),
                          public_key=funder.public)
        self.funding_tx = unsigned.with_witnesses(
            [witness] * len(unsigned.inputs)
        )
        self.chain.submit(self.funding_tx)
        self._commit(*self._initial)
        return self.funding_tx

    def _commit(self, balance_a: int, balance_b: int) -> CommitmentState:
        assert self.funding_tx is not None
        unsigned = Transaction(
            inputs=(TxInput(self.funding_tx.outpoint(0)),),
            outputs=tuple(
                TxOutput(value, LockingScript.pay_to_address(address))
                for value, address in sorted(
                    ((balance_a, self.party_a.address()),
                     (balance_b, self.party_b.address())),
                    key=lambda item: item[1],
                )
                if value > 0
            ),
            nonce=len(self.states),  # distinguish states at equal balances
        )
        digest = unsigned.sighash()
        commitment = unsigned.with_witnesses([
            Witness(signatures=(self.party_a.private.sign(digest),
                                self.party_b.private.sign(digest)))
        ])
        state = CommitmentState(len(self.states), balance_a, balance_b,
                                commitment)
        self.states.append(state)
        return state

    @property
    def current(self) -> CommitmentState:
        if not self.states:
            raise ProtocolError("channel has no state yet")
        return self.states[-1]

    def pay(self, from_a: bool, amount: int) -> CommitmentState:
        """Advance the channel state; the superseded state is revoked."""
        state = self.current
        balance_a, balance_b = state.balance_a, state.balance_b
        if from_a:
            if balance_a < amount:
                raise PaymentError("insufficient balance for A")
            balance_a -= amount
            balance_b += amount
        else:
            if balance_b < amount:
                raise PaymentError("insufficient balance for B")
            balance_b -= amount
            balance_a += amount
        self.revoked_txids.add(state.transaction.txid)
        return self._commit(balance_a, balance_b)

    # -- closing and the justice game ---------------------------------------

    def broadcast_state(self, state: CommitmentState) -> Transaction:
        """Unilaterally broadcast a (possibly revoked!) commitment."""
        self.chain.submit(state.transaction)
        return state.transaction

    def justice_deadline(self, state: CommitmentState) -> Optional[int]:
        """Block height by which the justice transaction must confirm."""
        if not self.chain.contains(state.transaction.txid):
            return None
        confirmed_height = (self.chain.height
                            - self.chain.confirmations(state.transaction.txid)
                            + 1)
        return confirmed_height + self.justice_window

    def justice_transaction(self, victim: KeyPair,
                            state: CommitmentState) -> Transaction:
        """Sweep the cheat's output to the victim.

        In LN the revocation secret lets the victim spend the cheat's
        commitment output; we model the authority with the victim's key
        over a dedicated justice spend of the commitment output paying the
        *cheating* party (identified as the non-victim)."""
        cheat_is_a = victim.address() == self.party_b.address()
        cheat_value = state.balance_a if cheat_is_a else state.balance_b
        cheat_address = (self.party_a.address() if cheat_is_a
                         else self.party_b.address())
        for index, output in enumerate(state.transaction.outputs):
            if output.script.destination() == cheat_address:
                unsigned = Transaction(
                    inputs=(TxInput(state.transaction.outpoint(index)),),
                    outputs=(TxOutput(
                        cheat_value, LockingScript.pay_to_address(
                            victim.address())),),
                )
                digest = unsigned.sighash()
                # The revocation secret is modelled as the cheat's own key
                # having been disclosed to the victim on revocation.
                cheat_keys = self.party_a if cheat_is_a else self.party_b
                return unsigned.with_witnesses([
                    Witness(signatures=(cheat_keys.private.sign(digest),),
                            public_key=cheat_keys.public)
                ])
        raise ProtocolError("cheating party has no output in this state")

    def theft_succeeded(self, state: CommitmentState) -> bool:
        """After the dust settles: did the revoked-state broadcaster keep
        the disputed output past the justice window?"""
        deadline = self.justice_deadline(state)
        if deadline is None:
            return False
        if self.chain.height < deadline:
            return False  # window still open; undecided
        cheat_is_a = True  # the broadcaster of a revoked state
        for index, output in enumerate(state.transaction.outputs):
            outpoint = state.transaction.outpoint(index)
            spender = self.chain.utxos.spender_of(outpoint)
            if spender is None and outpoint in self.chain.utxos:
                # Output unswept after the window: the thief can claim it.
                return True
        return False


def lightning_costs() -> Tuple[int, float, int, float]:
    """Table 4 row: (#txs, cost) for bilateral and unilateral closes.
    LN's on-chain footprint is the same either way."""
    return (LN_ONCHAIN_TXS_PER_CHANNEL, LN_ONCHAIN_COST_PER_CHANNEL,
            LN_ONCHAIN_TXS_PER_CHANNEL, LN_ONCHAIN_COST_PER_CHANNEL)
