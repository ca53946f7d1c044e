"""Per-node topology view assembled from routing gossip.

The view stores *channel halves* — one endpoint's directional
advertisement — and only exposes a directed edge u→v to the planner
when **both** halves exist: u announced (u, v) and v announced (v, u).
A node that lies about a channel to an honest node therefore cannot
make that edge routable; the honest endpoint never co-announces it
(DESIGN.md §13 walks through the trust argument).

Staleness is per ``(origin, channel_id)``: each half remembers the
highest sequence number applied, and :meth:`TopologyView.upsert`
rejects anything at or below it.  Every accepted change bumps
``version`` so planners can invalidate their caches cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import ReproError


@dataclass
class ChannelHalf:
    """One endpoint's latest advertisement of a channel direction."""

    channel_id: str
    origin: str
    peer: str
    capacity: int
    seq: int
    fee_base: int = 0
    fee_rate_ppm: int = 0
    disabled: bool = False


@dataclass(frozen=True)
class EdgeInfo:
    """A fully confirmed directed edge, as handed to the planner."""

    source: str
    target: str
    channel_id: str
    capacity: int
    fee_base: int
    fee_rate_ppm: int


class TopologyView:
    """Mutable per-node map of the payment network.

    Keys (gossip public keys) live here too: the handshake pins keys for
    attested direct peers (``pinned=True``), while keys learned from
    flooded gossip are trust-on-first-use and can never displace a
    pinned binding.
    """

    def __init__(self) -> None:
        # (origin, channel_id) -> ChannelHalf
        self._halves: Dict[Tuple[str, str], ChannelHalf] = {}
        self._keys: Dict[str, bytes] = {}
        self._pinned: Dict[str, bool] = {}
        self.version = 0

    # -- key bindings -------------------------------------------------

    def bind_key(self, name: str, key: bytes, *, pinned: bool = False) -> bool:
        """Associate ``name`` with a gossip public key.

        Returns False (no change) when a conflicting binding exists and
        the new one does not outrank it; a pinned (attested) binding can
        replace a TOFU one, never the other way around.
        """
        current = self._keys.get(name)
        if current is None:
            self._keys[name] = key
            self._pinned[name] = pinned
            return True
        if current == key:
            if pinned and not self._pinned.get(name):
                self._pinned[name] = True
            return True
        if pinned and not self._pinned.get(name):
            self._keys[name] = key
            self._pinned[name] = True
            return True
        return False

    # -- gossip application -------------------------------------------

    def upsert(
        self,
        *,
        origin: str,
        peer: str,
        channel_id: str,
        capacity: int,
        seq: int,
        fee_base: int = 0,
        fee_rate_ppm: int = 0,
        disabled: bool = False,
    ) -> bool:
        """Apply one half-advertisement; False means stale (rejected)."""
        if origin == peer:
            raise ReproError("a channel cannot connect a node to itself")
        key = (origin, channel_id)
        current = self._halves.get(key)
        if current is not None and seq <= current.seq:
            return False
        self._halves[key] = ChannelHalf(
            channel_id=channel_id,
            origin=origin,
            peer=peer,
            capacity=capacity,
            seq=seq,
            fee_base=fee_base,
            fee_rate_ppm=fee_rate_ppm,
            disabled=disabled,
        )
        self.version += 1
        return True

    # -- planner-facing queries ---------------------------------------

    def half(self, origin: str, channel_id: str) -> Optional[ChannelHalf]:
        return self._halves.get((origin, channel_id))

    def edges(self) -> Iterator[EdgeInfo]:
        """Yield confirmed directed edges (both halves present, forward
        half not disabled)."""
        for (origin, channel_id), half in self._halves.items():
            if half.disabled:
                continue
            reverse = self._halves.get((half.peer, channel_id))
            if reverse is None:
                continue
            yield EdgeInfo(
                source=origin,
                target=half.peer,
                channel_id=channel_id,
                capacity=half.capacity,
                fee_base=half.fee_base,
                fee_rate_ppm=half.fee_rate_ppm,
            )

    def nodes(self) -> Tuple[str, ...]:
        names = set()
        for half in self._halves.values():
            names.add(half.origin)
            names.add(half.peer)
        return tuple(sorted(names))

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def stats(self) -> Dict[str, int]:
        return {
            "nodes": len(self.nodes()),
            "edges": self.edge_count(),
            "halves": len(self._halves),
            "version": self.version,
        }

    # -- bulk construction --------------------------------------------

    @classmethod
    def from_overlay(
        cls,
        overlay,
        *,
        capacity: Optional[int] = None,
        capacities: Optional[Mapping[Tuple[str, str], int]] = None,
    ) -> "TopologyView":
        """Full-knowledge view for DES/netsim: every overlay channel is
        bilaterally announced at seq 0.

        ``capacities`` maps directed ``(source, target)`` pairs to
        spendable balance; ``capacity`` is the uniform fallback. With
        neither, edges are unconstrained (capacity 0 means "unknown" and
        the planner skips the capacity filter for them only when the
        amount is 0; use a huge default instead so amount-aware planning
        still works).
        """
        view = cls()
        default = capacity if capacity is not None else (1 << 62)
        for a, b in overlay.channels:
            channel_id = f"{min(a, b)}--{max(a, b)}"
            cap_ab = capacities.get((a, b), default) if capacities else default
            cap_ba = capacities.get((b, a), default) if capacities else default
            view.upsert(origin=a, peer=b, channel_id=channel_id,
                        capacity=cap_ab, seq=0)
            view.upsert(origin=b, peer=a, channel_id=channel_id,
                        capacity=cap_ba, seq=0)
        return view
