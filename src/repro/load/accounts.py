"""Simulated hub-account fleets for load generation.

A fleet is N lightweight clients — seed-derived keypairs with
client-side nonce counters, no daemon, no enclave — aimed at one
account hub.  The fleet opens every account in signed batches
(``account-pay-many``), then hands :class:`~repro.load.generators.
LoadTarget`\\ s whose ``request_factory`` signs a fresh ``account-pay``
per attempt, so the generators measure the hub's full verify-and-apply
path, not replayed bytes.

Pairing is ring-aware: when the hub is a :class:`~repro.runtime.
workers.ShardedDaemon`, accounts are partnered only within the shard
that owns them (same ``account:<pubkey hex>`` consistent-hash namespace
the router uses), so a fleet never generates ``cross_shard``
rejections by construction.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hub.client import _RequestSigner
from repro.load.generators import LoadTarget
from repro.workloads.assignment import HashRing

__all__ = ["AccountFleet"]


class AccountFleet:
    """``size`` simulated clients with deterministic keys and nonces.

    Keys derive from ``<seed_prefix>:<index>`` so a fleet is
    reproducible across processes; nonces start at 0 (fresh accounts)
    and count upward client-side, exactly like a real
    :class:`~repro.hub.client.HubClient`.
    """

    def __init__(self, size: int, seed_prefix: str = "hub-client",
                 worker_names: Optional[Sequence[str]] = None) -> None:
        if size < 2:
            raise ValueError("an account fleet needs at least 2 clients")
        self.signers: List[_RequestSigner] = []
        for index in range(size):
            signer = _RequestSigner(
                seed=f"{seed_prefix}:{index}".encode())
            signer.sync_nonce(0)
            self.signers.append(signer)
        self._partner = self._pair(worker_names)

    def _pair(self, worker_names: Optional[Sequence[str]]) -> Dict[int,
                                                                   int]:
        """index -> partner index; within-shard when sharded."""
        if not worker_names:
            groups = [list(range(len(self.signers)))]
        else:
            ring = HashRing(list(worker_names))
            by_owner: Dict[str, List[int]] = {}
            for index, signer in enumerate(self.signers):
                owner = ring.owner(f"account:{signer.account_hex}")
                by_owner.setdefault(owner, []).append(index)
            groups = list(by_owner.values())
        partner: Dict[int, int] = {}
        for group in groups:
            for position, index in enumerate(group):
                # Singleton shards self-pay (a legal ledger no-op minus
                # fee) rather than crossing shards.
                partner[index] = group[(position + 1) % len(group)]
        return partner

    def deposit_requests(self, amount: int) -> List[str]:
        """One signed opening deposit per client (consumes a nonce)."""
        return [signer.deposit_request(amount) for signer in self.signers]

    def open_batches(self, amount: int,
                     batch_size: int = 256) -> List[List[str]]:
        """Opening deposits chunked for ``account-pay-many``."""
        requests = self.deposit_requests(amount)
        return [requests[start:start + batch_size]
                for start in range(0, len(requests), batch_size)]

    def pay_request(self, index: int, amount: int) -> str:
        """Sign one pay from client ``index`` to its ring partner."""
        signer = self.signers[index]
        partner = self.signers[self._partner[index]]
        return signer.pay_request(partner.account, amount)

    def pay_targets(self, host: str, port: int, amount: int,
                    streams: int = 4,
                    label_prefix: str = "accounts") -> List[LoadTarget]:
        """Split the fleet across ``streams`` load targets.

        Each target owns a disjoint slice of clients and round-robins
        them; a client is only ever driven from one stream, so its
        nonce counter needs no locking (the factory runs on the event
        loop).
        """
        streams = max(1, min(streams, len(self.signers)))
        slices: List[List[int]] = [[] for _ in range(streams)]
        for index in range(len(self.signers)):
            slices[index % streams].append(index)

        def factory_for(indices: List[int]):
            cycle = itertools.cycle(indices)

            def build() -> Tuple[str, Dict[str, str]]:
                return ("account-pay",
                        {"request": self.pay_request(next(cycle), amount)})
            return build

        return [
            LoadTarget(host=host, port=port, channel_id="-",
                       amount=amount,
                       label=f"{label_prefix}[{stream}]",
                       request_factory=factory_for(indices))
            for stream, indices in enumerate(slices)
        ]
