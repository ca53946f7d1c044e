"""Network topologies from the paper's evaluation.

* :func:`fig3_topology` — the 33-machine UK/US/IL testbed (Fig. 3):
  per-site-pair RTTs and bandwidths.
* :func:`hub_and_spoke_overlay` — the three-tier overlay of Fig. 5
  (§7.4), with 100 ms inter-node RTT.
* :func:`complete_graph_overlay` — the complete payment-channel graph of
  §7.4's Fig. 6 experiments.

Overlays are payment-channel graphs (who has a channel with whom); the
topology is the underlay (what latency messages see).  §7.4 runs overlays
on 30 UK machines with an *emulated* 100 ms inter-node latency, which we
reproduce with :meth:`Topology.uniform`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import NetworkError


def _mbps(megabits: float) -> float:
    return megabits * 1_000_000.0


@dataclass
class Topology:
    """Sites, node→site placement, and per-site-pair RTT/bandwidth."""

    site_of: Dict[str, str] = field(default_factory=dict)
    rtt_between_sites: Dict[FrozenSet[str], float] = field(default_factory=dict)
    bandwidth_between_sites: Dict[FrozenSet[str], float] = field(default_factory=dict)
    intra_site_rtt: float = 0.0005  # 0.5 ms, Fig. 3's LAN links
    intra_site_bandwidth: float = _mbps(1000)

    def add_node(self, name: str, site: str) -> None:
        if name in self.site_of:
            raise NetworkError(f"node {name!r} already placed")
        self.site_of[name] = site

    def set_link(self, site_a: str, site_b: str, rtt: float,
                 bandwidth: float) -> None:
        key = frozenset((site_a, site_b))
        self.rtt_between_sites[key] = rtt
        self.bandwidth_between_sites[key] = bandwidth

    def _site(self, node: str) -> str:
        site = self.site_of.get(node)
        if site is None:
            raise NetworkError(f"node {node!r} not placed in topology")
        return site

    def rtt(self, node_a: str, node_b: str) -> float:
        site_a, site_b = self._site(node_a), self._site(node_b)
        if site_a == site_b:
            return 0.0 if node_a == node_b else self.intra_site_rtt
        key = frozenset((site_a, site_b))
        if key not in self.rtt_between_sites:
            raise NetworkError(f"no link between sites {site_a} and {site_b}")
        return self.rtt_between_sites[key]

    def bandwidth(self, node_a: str, node_b: str) -> float:
        site_a, site_b = self._site(node_a), self._site(node_b)
        if site_a == site_b:
            return self.intra_site_bandwidth
        return self.bandwidth_between_sites[frozenset((site_a, site_b))]

    def latency_fn(self):
        """Adapter for :class:`~repro.network.transport.Network`."""
        return self.rtt

    def bandwidth_fn(self):
        return self.bandwidth

    @classmethod
    def uniform(cls, node_names: Iterable[str], rtt: float,
                bandwidth: float = _mbps(1000)) -> "Topology":
        """All pairs at the same RTT — §7.4's emulated 100 ms WAN."""
        topology = cls()
        names = list(node_names)
        for name in names:
            topology.add_node(name, site=name)  # one site per node
        for site_a, site_b in itertools.combinations(names, 2):
            topology.set_link(site_a, site_b, rtt, bandwidth)
        return topology


# Site names used throughout the evaluation code.
UK, US, IL = "UK", "US", "IL"


def fig3_topology(uk_machines: int = 30) -> Topology:
    """The paper's Fig. 3 testbed.

    Machines: ``US`` (Intel Xeon E3-1280 v5), ``IL1``/``IL2``,
    ``UK1``…``UK{n}``.  Site-pair links (RTT, bandwidth):

    * UK↔US: 90 ms, 150 Mb/s
    * UK↔IL: 60 ms, 180 Mb/s
    * US↔IL: 140 ms, 90 Mb/s
    * intra-UK: 0.5 ms, 100 Mb/s–1 Gb/s (we use 1 Gb/s)

    These assignments reproduce Table 1's latency ladder: one payment
    round-trip UK↔US ≈ 90 ms (paper: 86 ms); one replica in IL adds
    60 + 140 ms (paper total: 292 ms).
    """
    topology = Topology()
    topology.add_node("US", US)
    topology.add_node("IL1", IL)
    topology.add_node("IL2", IL)
    for index in range(1, uk_machines + 1):
        topology.add_node(f"UK{index}", UK)
    topology.set_link(UK, US, rtt=0.090, bandwidth=_mbps(150))
    topology.set_link(UK, IL, rtt=0.060, bandwidth=_mbps(180))
    topology.set_link(US, IL, rtt=0.140, bandwidth=_mbps(90))
    return topology


@dataclass(frozen=True)
class Overlay:
    """A payment-channel graph: nodes, channels, and node tiers."""

    nodes: Tuple[str, ...]
    channels: Tuple[Tuple[str, str], ...]
    tier_of: Dict[str, int] = field(default_factory=dict, hash=False, compare=False)


def complete_graph_overlay(node_names: Iterable[str]) -> Overlay:
    """Every pair of nodes shares a direct payment channel (§7.4)."""
    names = tuple(node_names)
    channels = tuple(itertools.combinations(names, 2))
    return Overlay(nodes=names, channels=channels,
                   tier_of={name: 1 for name in names})


def hub_and_spoke_overlay(
    tier1: int = 3, tier2_per_hub: int = 3, tier3_per_mid: int = 2,
    prefix: str = "N",
) -> Overlay:
    """The Fig. 5 three-tier hub-and-spoke overlay.

    Tier-1 hubs form a complete core; each hub serves ``tier2_per_hub``
    mid-tier nodes; each mid-tier node serves ``tier3_per_mid`` leaves.
    Defaults give 3 + 9 + 18 = 30 nodes, matching the 30-machine UK
    deployment.
    """
    nodes: List[str] = []
    channels: List[Tuple[str, str]] = []
    tier_of: Dict[str, int] = {}

    hubs = [f"{prefix}hub{i}" for i in range(1, tier1 + 1)]
    for hub in hubs:
        nodes.append(hub)
        tier_of[hub] = 1
    channels.extend(itertools.combinations(hubs, 2))

    mid_index = 0
    mids: List[str] = []
    for hub in hubs:
        for _ in range(tier2_per_hub):
            mid_index += 1
            mid = f"{prefix}mid{mid_index}"
            nodes.append(mid)
            tier_of[mid] = 2
            mids.append(mid)
            channels.append((hub, mid))

    leaf_index = 0
    for mid in mids:
        for _ in range(tier3_per_mid):
            leaf_index += 1
            leaf = f"{prefix}leaf{leaf_index}"
            nodes.append(leaf)
            tier_of[leaf] = 3
            channels.append((mid, leaf))

    return Overlay(nodes=tuple(nodes), channels=tuple(channels),
                   tier_of=tier_of)
