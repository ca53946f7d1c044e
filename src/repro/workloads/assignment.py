"""Address→machine assignment (paper §7.4).

"For the complete graph, we randomly and evenly distribute all Bitcoin
addresses between the machines; for the hub-and-spoke graph, we distribute
the addresses in a skewed fashion ... 50% of addresses to tier 1 nodes,
35% to tier 2, and 15% to tier 3."
"""

from __future__ import annotations

import bisect
import hashlib
import random
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import WorkloadError

DEFAULT_TIER_SHARES = {1: 0.50, 2: 0.35, 3: 0.15}


class HashRing:
    """Consistent-hash ring: stable key→node assignment.

    The daemon worker pool shards channels across OS processes with this
    ring: every router process computes ``owner(peer)`` independently and
    agrees, because the mapping depends only on the node names — no
    coordination, no shared state.  Virtual nodes (``replicas`` points
    per node) smooth the distribution; a pool without one node assigns
    differently only the keys that node owned, which is the property a
    plain ``hash(key) % n`` lacks.

    Ownership stability bound (tested in
    ``tests/test_workloads_bench.py::TestHashRing``): with N nodes,
    adding one moves only keys the new node's replica points capture — in
    expectation ``keys/(N+1)``, and with the default 64 replicas per
    node the observed movement stays under roughly ``2 × keys/(N+1)``
    (hash variance shrinks as replicas grow).  A ring without a node
    differs in *exactly* the keys that node owned — every other key's
    first clockwise point is unchanged.  The hub relies on this: account
    shards (``account:<pubkey>`` keys) stay put when the worker pool
    changes elsewhere.
    """

    def __init__(self, nodes: Iterable[str] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise WorkloadError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []  # sorted (hash, node)
        self._nodes: set = set()
        for node in nodes:
            self.add(node)

    @staticmethod
    def _hash(value: str) -> int:
        return int.from_bytes(
            hashlib.sha256(value.encode()).digest()[:8], "big")

    def add(self, node: str) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self.replicas):
            point = (self._hash(f"{node}#{replica}"), node)
            bisect.insort(self._points, point)

    @property
    def nodes(self) -> List[str]:
        return sorted(self._nodes)

    def owner(self, key: str) -> str:
        """The node owning ``key``: first ring point clockwise of its
        hash (wrapping past the top back to the first point)."""
        if not self._points:
            raise WorkloadError("hash ring is empty")
        index = bisect.bisect_right(self._points, (self._hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


def assign_addresses_skewed(addresses: Sequence[str],
                            tier_of: Mapping[str, int],
                            seed: int = 0,
                            tier_shares: Mapping[int, float] = None
                            ) -> Dict[str, str]:
    """Skewed distribution: each tier's share of addresses is split evenly
    among that tier's machines."""
    shares = dict(tier_shares or DEFAULT_TIER_SHARES)
    machines_by_tier: Dict[int, List[str]] = {}
    for machine, tier in tier_of.items():
        machines_by_tier.setdefault(tier, []).append(machine)
    missing = set(shares) - set(machines_by_tier)
    if missing:
        raise WorkloadError(f"no machines in tiers {sorted(missing)}")
    for tier in machines_by_tier:
        machines_by_tier[tier].sort()

    rng = random.Random(seed)
    shuffled = list(addresses)
    rng.shuffle(shuffled)

    assignment: Dict[str, str] = {}
    cursor = 0
    total = len(shuffled)
    tiers = sorted(shares)
    for position, tier in enumerate(tiers):
        if position == len(tiers) - 1:
            chunk = shuffled[cursor:]
        else:
            size = int(round(shares[tier] * total))
            chunk = shuffled[cursor:cursor + size]
            cursor += size
        machines = machines_by_tier[tier]
        for index, address in enumerate(chunk):
            assignment[address] = machines[index % len(machines)]
    return assignment


def assign_addresses_balanced(address_weights: Mapping[str, int],
                              machines: Sequence[str]) -> Dict[str, str]:
    """Weight-balanced assignment: heaviest addresses first, each to the
    currently lightest machine.

    The paper's complete-graph experiment distributes addresses "randomly
    and evenly"; at its scale (150 M payments, popular addresses spread
    over only 30 machines) that yields near-balanced per-machine load.
    Our trace is ~4 orders of magnitude smaller, so an unweighted random
    split leaves one machine holding the single hottest address and
    dominating the makespan — balancing by observed payment count restores
    the property the paper's scale provides for free."""
    if not machines:
        raise WorkloadError("no machines to assign addresses to")
    load = {machine: 0 for machine in machines}
    assignment: Dict[str, str] = {}
    ordered = sorted(address_weights.items(),
                     key=lambda item: (-item[1], item[0]))
    for address, weight in ordered:
        machine = min(load, key=lambda name: (load[name], name))
        assignment[address] = machine
        load[machine] += weight
    return assignment
