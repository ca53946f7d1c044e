"""Transactions: the UTXO transaction graph.

A transaction consumes :class:`OutPoint` references and creates new outputs.
Signing uses SIGHASH_ALL semantics — the digest covers every input outpoint
and every output, so a counterparty cannot reroute funds after signing.
Witnesses are excluded from the txid (segwit-style) so adding a second
committee signature does not change the transaction's identity.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.hashing import sha256d
from repro.crypto.keys import PrivateKey, PublicKey
from repro.blockchain.script import LockingScript, Witness
from repro.errors import InvalidTransaction


@dataclass(frozen=True, order=True)
class OutPoint:
    """Reference to a transaction output: (txid, output index)."""

    txid: str
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidTransaction(f"negative output index {self.index}")

    def __str__(self) -> str:
        return f"{self.txid[:12]}…:{self.index}"


@dataclass(frozen=True)
class TxOutput:
    """Value locked under a spending condition.  Values are integer satoshis."""

    value: int
    script: LockingScript

    def __post_init__(self) -> None:
        if self.value < 0:
            raise InvalidTransaction(f"negative output value {self.value}")

    def serialize(self) -> bytes:
        return struct.pack(">Q", self.value) + self.script.serialize()


@dataclass(frozen=True)
class TxInput:
    """An input spending ``outpoint`` with ``witness``."""

    outpoint: OutPoint
    witness: Witness = field(default_factory=Witness)

    def serialize_outpoint(self) -> bytes:
        return self.outpoint.txid.encode() + struct.pack(">I", self.outpoint.index)


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction.

    ``is_coinbase`` transactions mint funds (no inputs); the simulated
    chain uses them to endow test and benchmark accounts.
    """

    inputs: Tuple[TxInput, ...]
    outputs: Tuple[TxOutput, ...]
    is_coinbase: bool = False
    # Disambiguates otherwise-identical coinbases (no inputs to differ on).
    nonce: int = 0
    # For coinbases only: the part of this coinbase's output value that is
    # *claimed fees* rather than newly minted money.  Conservation checks
    # (``Blockchain.total_minted``) subtract it, so fees move value without
    # creating it.  Zero for every non-coinbase transaction.
    fee_claim: int = 0

    def __post_init__(self) -> None:
        if self.is_coinbase:
            if self.inputs:
                raise InvalidTransaction("coinbase transactions take no inputs")
        elif not self.inputs:
            raise InvalidTransaction("non-coinbase transaction needs inputs")
        if self.fee_claim:
            if not self.is_coinbase:
                raise InvalidTransaction("only a coinbase can claim fees")
            if self.fee_claim < 0:
                raise InvalidTransaction(f"negative fee claim {self.fee_claim}")
        if not self.outputs:
            raise InvalidTransaction("transaction needs at least one output")
        seen = set()
        for tx_input in self.inputs:
            if tx_input.outpoint in seen:
                raise InvalidTransaction(
                    f"transaction spends {tx_input.outpoint} twice"
                )
            seen.add(tx_input.outpoint)

    def _skeleton(self) -> bytes:
        """Serialisation without witnesses — basis of txid and sighash."""
        parts = [b"coinbase" if self.is_coinbase else b"tx",
                 struct.pack(">Q", self.nonce)]
        if self.fee_claim:
            parts.append(b"fees" + struct.pack(">Q", self.fee_claim))
        parts.extend(tx_input.serialize_outpoint() for tx_input in self.inputs)
        parts.extend(output.serialize() for output in self.outputs)
        return b"\x1f".join(parts)

    @property
    def txid(self) -> str:
        """Witness-independent transaction id."""
        return sha256d(self._skeleton()).hex()

    def sighash(self) -> bytes:
        """SIGHASH_ALL digest every input signature commits to."""
        return sha256d(b"sighash-all:" + self._skeleton())

    @property
    def vsize(self) -> int:
        """Deterministic virtual size (bytes of the witnessless skeleton).

        The fee market prices transactions in value-per-vsize; using the
        skeleton keeps the size independent of how many committee members
        have signed so far, so feerate estimates made before signing hold
        after."""
        return len(self._skeleton())

    def outpoint(self, index: int) -> OutPoint:
        """The :class:`OutPoint` referencing this transaction's ``index``-th
        output."""
        if not 0 <= index < len(self.outputs):
            raise InvalidTransaction(
                f"output index {index} out of range for {len(self.outputs)} outputs"
            )
        return OutPoint(self.txid, index)

    def spent_outpoints(self) -> List[OutPoint]:
        return [tx_input.outpoint for tx_input in self.inputs]

    def total_output_value(self) -> int:
        return sum(output.value for output in self.outputs)

    def with_witnesses(self, witnesses: Sequence[Witness]) -> "Transaction":
        """Return a copy with ``witnesses`` attached, one per input."""
        if len(witnesses) != len(self.inputs):
            raise InvalidTransaction(
                f"{len(witnesses)} witnesses for {len(self.inputs)} inputs"
            )
        new_inputs = tuple(
            replace(tx_input, witness=witness)
            for tx_input, witness in zip(self.inputs, witnesses)
        )
        return replace(self, inputs=new_inputs)

    def __repr__(self) -> str:
        kind = "coinbase" if self.is_coinbase else "tx"
        return (
            f"Transaction({kind} {self.txid[:12]}…, "
            f"{len(self.inputs)} in, {len(self.outputs)} out, "
            f"value={self.total_output_value()})"
        )


def make_coinbase(script: LockingScript, value: int, nonce: int = 0,
                  fee_claim: int = 0) -> Transaction:
    """Mint ``value`` into ``script``.

    With ``fee_claim == 0`` this is simulation bootstrap (endowments);
    with ``fee_claim == value`` it is a fee-collection coinbase that moves
    already-existing value to the miner without minting anything new."""
    return Transaction(
        inputs=(), outputs=(TxOutput(value, script),), is_coinbase=True,
        nonce=nonce, fee_claim=fee_claim,
    )


def build_p2pkh_transfer(
    source_outpoints: Sequence[Tuple[OutPoint, int]],
    signing_key: PrivateKey,
    destinations: Sequence[Tuple[str, int]],
) -> Transaction:
    """Build and sign a simple P2PKH spend.

    ``source_outpoints`` are ``(outpoint, value)`` pairs all locked to
    ``signing_key``'s address; ``destinations`` are ``(address, value)``
    pairs.  Any difference between input and output value is an implicit
    fee, bid to miners through the mempool's feerate ordering (the
    builder still refuses to overspend)."""
    total_in = sum(value for _, value in source_outpoints)
    total_out = sum(value for _, value in destinations)
    if total_out > total_in:
        raise InvalidTransaction(
            f"outputs ({total_out}) exceed inputs ({total_in})"
        )
    unsigned = Transaction(
        inputs=tuple(TxInput(outpoint) for outpoint, _ in source_outpoints),
        outputs=tuple(
            TxOutput(value, LockingScript.pay_to_address(address))
            for address, value in destinations
        ),
    )
    digest = unsigned.sighash()
    witness = Witness(
        signatures=(signing_key.sign(digest),),
        public_key=signing_key.public_key,
    )
    return unsigned.with_witnesses([witness] * len(unsigned.inputs))
