"""The unspent-transaction-output set."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.blockchain.script import LockingScript
from repro.blockchain.transaction import OutPoint, Transaction, TxOutput
from repro.errors import DoubleSpend, UnknownOutput


@dataclass(frozen=True)
class UTXOEntry:
    """One unspent output plus the height it was confirmed at."""

    outpoint: OutPoint
    output: TxOutput
    height: int

    @property
    def value(self) -> int:
        return self.output.value

    @property
    def script(self) -> LockingScript:
        return self.output.script


class UTXOSet:
    """Tracks unspent outputs and enforces single-spend.

    The set also remembers *which* outpoints were ever spent so that a
    late-arriving conflicting transaction is classified as a
    :class:`DoubleSpend` (the error class the PoPT tests assert on) rather
    than a generic :class:`UnknownOutput`.
    """

    def __init__(self) -> None:
        self._unspent: Dict[OutPoint, UTXOEntry] = {}
        # outpoint -> (spending txid, the entry as it was when spent) — the
        # entry is kept so a reorg can restore it verbatim on unwind.
        self._spent: Dict[OutPoint, Tuple[str, UTXOEntry]] = {}
        self._by_address: Dict[str, set] = {}

    def __contains__(self, outpoint: OutPoint) -> bool:
        return outpoint in self._unspent

    def get(self, outpoint: OutPoint) -> UTXOEntry:
        """Look up an unspent output; raises for spent or unknown ones."""
        entry = self._unspent.get(outpoint)
        if entry is not None:
            return entry
        if outpoint in self._spent:
            raise DoubleSpend(
                f"{outpoint} already spent by {self._spent[outpoint][0][:12]}…"
            )
        raise UnknownOutput(f"{outpoint} does not exist")

    def spender_of(self, outpoint: OutPoint) -> Optional[str]:
        """txid that spent ``outpoint``, or ``None`` if unspent/unknown."""
        spent = self._spent.get(outpoint)
        return spent[0] if spent is not None else None

    def apply_transaction(self, transaction: Transaction, height: int) -> None:
        """Atomically consume inputs and add outputs.

        Validation (scripts, conflicts) happens in
        :class:`~repro.blockchain.chain.Blockchain`; this method still
        re-checks spendability so the set can never go inconsistent."""
        for outpoint in transaction.spent_outpoints():
            self.get(outpoint)  # raises on double spend / unknown
        for outpoint in transaction.spent_outpoints():
            entry = self._unspent.pop(outpoint)
            self._spent[outpoint] = (transaction.txid, entry)
            self._by_address[entry.script.destination()].discard(outpoint)
        for index, output in enumerate(transaction.outputs):
            outpoint = transaction.outpoint(index)
            entry = UTXOEntry(outpoint, output, height)
            self._unspent[outpoint] = entry
            self._by_address.setdefault(output.script.destination(), set()).add(
                outpoint
            )

    def unapply_transaction(self, transaction: Transaction) -> None:
        """Reverse :meth:`apply_transaction` (reorg unwind).

        Only valid when ``transaction``'s outputs are still unspent — the
        chain unwinds blocks tip-first and transactions within a block in
        reverse, so that always holds."""
        for index in range(len(transaction.outputs)):
            outpoint = transaction.outpoint(index)
            entry = self._unspent.pop(outpoint, None)
            if entry is None:
                raise DoubleSpend(
                    f"cannot unwind {outpoint}: output already spent downstream"
                )
            self._by_address[entry.script.destination()].discard(outpoint)
        for outpoint in transaction.spent_outpoints():
            spender, entry = self._spent.pop(outpoint)
            if spender != transaction.txid:
                raise DoubleSpend(
                    f"cannot unwind {outpoint}: spent by {spender[:12]}… not "
                    f"{transaction.txid[:12]}…"
                )
            self._unspent[outpoint] = entry
            self._by_address.setdefault(entry.script.destination(), set()).add(
                outpoint
            )

    def balance(self, address: str) -> int:
        """Total unspent value locked to ``address``."""
        outpoints = self._by_address.get(address, set())
        return sum(self._unspent[outpoint].value for outpoint in outpoints)

    def outputs_for(self, address: str) -> List[UTXOEntry]:
        """All unspent entries paying ``address``, oldest first."""
        outpoints = self._by_address.get(address, set())
        entries = [self._unspent[outpoint] for outpoint in outpoints]
        return sorted(entries, key=lambda entry: (entry.height, entry.outpoint))

    def total_value(self) -> int:
        """Sum of all unspent value (conservation-of-value invariant)."""
        return sum(entry.value for entry in self._unspent.values())
