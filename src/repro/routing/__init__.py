"""``repro.routing`` — route discovery and selection, shared by both modes.

* :class:`TopologyView` — a per-node map of the channel graph, fed by
  gossip in live mode or built whole from an overlay in DES/netsim.
* :class:`RoutePlanner` — the *only* route-selection code in the repo
  (capacity/fee/hop-aware, pluggable cost, cached with
  ``routing.cache_*`` metrics).
* :class:`GossipEngine` + :class:`ChannelAnnounce`/:class:`ChannelUpdate`
  — signed, per-origin-sequenced flooding that keeps live views
  converged (wire tags 58/59).

The trust model is documented in DESIGN.md §13.
"""

from repro.routing.gossip import GossipEngine
from repro.routing.messages import ChannelAnnounce, ChannelUpdate
from repro.routing.planner import (
    RoutePlanner,
    load_concentration,
    path_length,
)
from repro.routing.topology import ChannelHalf, EdgeInfo, TopologyView

__all__ = [
    "ChannelAnnounce",
    "ChannelHalf",
    "ChannelUpdate",
    "EdgeInfo",
    "GossipEngine",
    "RoutePlanner",
    "TopologyView",
    "load_concentration",
    "path_length",
]
