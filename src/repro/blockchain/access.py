"""Asynchronous blockchain access.

This is the crux of the paper's threat model (§2.2): blockchains provide
only *best-effort* write latency, and attackers can delay a victim's
transactions arbitrarily.  :class:`WriteAdversary` models that power — a
per-broadcast delay, a censorship set, or full eclipse — and
:class:`AsyncBlockchainClient` is the only interface protocol code gets to
the chain, so no component can accidentally assume synchrony.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.blockchain.chain import Blockchain, ReorgEvent
from repro.blockchain.transaction import Transaction
from repro.errors import BlockchainError
from repro.simulation.scheduler import Scheduler


class WriteAdversary:
    """Controls how long each broadcast takes to reach the mempool.

    * ``base_delay`` — honest-network propagation latency.
    * ``delay_for(txid)`` — per-transaction extra delay (attack).
    * ``censored`` — txids (or ``"*"``) that never reach the chain at all:
      the unbounded-delay attack that breaks synchronous payment networks.
    """

    def __init__(self, base_delay: float = 1.0,
                 rng: Optional[random.Random] = None) -> None:
        self.base_delay = base_delay
        self.extra_delays: Dict[str, float] = {}
        self.censored: Set[str] = set()
        self._rng = rng or random.Random(0)
        self.jitter = 0.0

    def censor(self, txid: str) -> None:
        """Suppress a specific transaction forever."""
        self.censored.add(txid)

    def eclipse(self) -> None:
        """Suppress *all* broadcasts (node eclipse attack)."""
        self.censored.add("*")

    def lift_eclipse(self) -> None:
        self.censored.discard("*")

    def delay(self, txid: str, extra: float) -> None:
        """Add ``extra`` seconds of adversarial delay to one transaction."""
        self.extra_delays[txid] = extra

    def is_censored(self, txid: str) -> bool:
        return "*" in self.censored or txid in self.censored

    def delay_for(self, txid: str) -> float:
        delay = self.base_delay + self.extra_delays.get(txid, 0.0)
        if self.jitter > 0:
            delay += self._rng.uniform(0, self.jitter)
        return delay


@dataclass
class BroadcastReceipt:
    """Tracks one broadcast's fate.

    Receipts are fork-aware: a delivered transaction can later be
    *orphaned* by a reorg (``orphaned_at`` set, confirmations back to 0),
    after which the client automatically re-broadcasts it through the same
    adversarial write path (``rebroadcasts`` counts attempts).  Eviction
    clears ``delivered_at`` (the confirmation is undone), so "orphaned" is
    explicit state rather than inferred from clock order: in a
    discrete-event run eviction and delivery can share a timestamp.  A
    receipt whose transaction re-confirms on the winning branch has
    ``delivered_at`` set again."""

    txid: str
    submitted_at: float
    delivered_at: Optional[float] = None
    rejected: Optional[str] = None  # error message if the chain refused it
    orphaned_at: Optional[float] = None  # last time a reorg evicted it
    rebroadcasts: int = 0


class AsyncBlockchainClient:
    """A participant's view of the chain: asynchronous writes, honest reads.

    Reads (``is_confirmed``, ``balance``) are immediate — the paper allows
    participants to *read* the chain whenever they are online; only write
    latency is unbounded.  Reads can also be eclipsed via the adversary for
    DoS experiments, in which case queries raise :class:`BlockchainError`.
    """

    def __init__(
        self,
        chain: Blockchain,
        scheduler: Scheduler,
        adversary: Optional[WriteAdversary] = None,
    ) -> None:
        self.chain = chain
        self.scheduler = scheduler
        self.adversary = adversary or WriteAdversary(base_delay=0.0)
        self.receipts: List[BroadcastReceipt] = []
        self._receipts_by_txid: Dict[str, BroadcastReceipt] = {}
        self._broadcasted: Dict[str, Transaction] = {}
        self.reads_blocked = False
        chain.subscribe_reorg(self._on_reorg)

    # -- writes ---------------------------------------------------------

    def broadcast(self, transaction: Transaction) -> BroadcastReceipt:
        """Send a transaction toward the mempool.

        Returns immediately with a receipt; the transaction reaches the
        chain after the adversary-chosen delay, or never if censored.
        Validation errors surface on the receipt, not as exceptions — a
        broadcaster cannot synchronously observe mempool acceptance on a
        real network either.
        """
        txid = transaction.txid
        receipt = BroadcastReceipt(txid=txid, submitted_at=self.scheduler.now)
        self.receipts.append(receipt)
        self._receipts_by_txid[txid] = receipt
        self._broadcasted[txid] = transaction
        self._schedule_delivery(transaction, receipt)
        return receipt

    def _schedule_delivery(
        self, transaction: Transaction, receipt: BroadcastReceipt
    ) -> None:
        txid = transaction.txid
        if self.adversary.is_censored(txid):
            return  # silently dropped; receipt never delivers
        delay = self.adversary.delay_for(txid)

        def deliver() -> None:
            # Re-check censorship at delivery: the paper's §2.2 adversary
            # can suppress a transaction at *any* point, including between
            # broadcast and mempool arrival.
            if self.adversary.is_censored(txid):
                return
            receipt.delivered_at = self.scheduler.now
            receipt.rejected = None
            try:
                self.chain.submit(transaction)
            except BlockchainError as exc:
                receipt.rejected = str(exc)

        self.scheduler.call_after(delay, deliver)

    def _on_reorg(self, event: ReorgEvent) -> None:
        """A reorg evicted confirmed transactions: mark our receipts
        orphaned and re-broadcast through the same adversarial path."""
        for transaction in event.evicted:
            receipt = self._receipts_by_txid.get(transaction.txid)
            if receipt is None:
                continue
            receipt.orphaned_at = self.scheduler.now
            receipt.delivered_at = None  # confirmations undone
            receipt.rebroadcasts += 1
            self._schedule_delivery(transaction, receipt)
        for txid in event.dropped:
            receipt = self._receipts_by_txid.get(txid)
            if receipt is not None:
                receipt.orphaned_at = self.scheduler.now
                receipt.rejected = "evicted by reorg; conflicts with new branch"

    # -- reads ----------------------------------------------------------

    def _check_readable(self) -> None:
        if self.reads_blocked:
            raise BlockchainError("client is eclipsed: chain reads unavailable")

    def is_confirmed(self, txid: str, depth: int = 1) -> bool:
        self._check_readable()
        return self.chain.confirmations(txid) >= depth

    def balance(self, address: str) -> int:
        self._check_readable()
        return self.chain.balance(address)
