"""Simulated Bitcoin-like blockchain.

A UTXO-model ledger with exactly the semantics Teechain's safety argument
depends on:

* transaction outputs locked by P2PKH or m-of-n multisig conditions
  (:mod:`~repro.blockchain.script`);
* conflict (double-spend) rejection at the mempool and block level — the
  mechanism PoPTs exploit (:mod:`~repro.blockchain.chain`);
* block production on demand, fork choice and confirmation counting
  (:mod:`~repro.blockchain.chain`);
* **asynchronous access**: clients broadcast through an adversary that may
  delay or censor writes for unbounded time
  (:mod:`~repro.blockchain.access`);
* the paper's Table 4 cost metric — (public key + signature) pairs placed
  on chain (:mod:`~repro.blockchain.cost`).
"""

from repro.blockchain.access import AsyncBlockchainClient, WriteAdversary
from repro.blockchain.chain import Blockchain
from repro.blockchain.cost import blockchain_cost, transaction_cost
from repro.blockchain.script import LockingScript, Witness
from repro.blockchain.transaction import (
    OutPoint,
    Transaction,
    TxInput,
    TxOutput,
    build_p2pkh_transfer,
)
from repro.blockchain.utxo import UTXOSet

__all__ = [
    "AsyncBlockchainClient",
    "Blockchain",
    "LockingScript",
    "OutPoint",
    "Transaction",
    "TxInput",
    "TxOutput",
    "UTXOSet",
    "Witness",
    "WriteAdversary",
    "blockchain_cost",
    "build_p2pkh_transfer",
    "transaction_cost",
]
