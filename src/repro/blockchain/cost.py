"""Blockchain cost accounting — the paper's Table 4 metric.

§7.5: "we abstract from particular blockchains and approximate cost by
counting the pairs of public keys and signatures that must be placed onto
the blockchain: a cost of 1 means one public key and one signature."

A transaction's cost is therefore (public keys + signatures) / 2, where:

* each witness contributes its signatures and (for P2PKH) its revealed key;
* each multisig *output* contributes its n listed keys (P2PKH outputs
  contribute nothing — they store only a hash).

Worked check against the paper: a Teechain funding deposit spends a P2PKH
output (1 key + 1 sig) into an n-key multisig output (n keys), so its cost
is (2 + n)/2 = 1 + n/2 — exactly the paper's formula.
"""

from __future__ import annotations

from typing import Iterable

from repro.blockchain.transaction import Transaction


def transaction_pubkeys(transaction: Transaction) -> int:
    """Public keys this transaction places on chain."""
    keys = 0
    for tx_input in transaction.inputs:
        keys += tx_input.witness.pubkey_count()
    for output in transaction.outputs:
        keys += output.script.pubkey_count()
    return keys


def transaction_signatures(transaction: Transaction) -> int:
    """Signatures this transaction places on chain."""
    return sum(
        tx_input.witness.signature_count() for tx_input in transaction.inputs
    )


def transaction_cost(transaction: Transaction) -> float:
    """Cost of one transaction in (pubkey + signature)-pair units."""
    return (
        transaction_pubkeys(transaction) + transaction_signatures(transaction)
    ) / 2.0


def blockchain_cost(transactions: Iterable[Transaction]) -> float:
    """Total cost of a set of transactions (e.g. a channel's lifecycle)."""
    return sum(transaction_cost(transaction) for transaction in transactions)
