"""The one route-selection implementation.

Everything that picks a payment path — live daemons resolving
``pay-multihop dest=``, DES multihop and ``bench/netsim.py`` — goes
through :class:`RoutePlanner`.  networkx is confined to this module and
imported only inside :meth:`RoutePlanner.iter_routes`, the k-shortest
simple-path enumeration it backs, so a daemon, which routes with
:meth:`RoutePlanner.find_route`'s own Dijkstra, never loads it.

Two cost models ship built in, plus a pluggable callable:

* ``"hops"`` — every usable edge costs 1; shortest path = fewest
  channels, the paper's §7.4 policy.
* ``"fees"`` — edge cost is the forwarding fee the edge's source would
  charge (``fee_base + amount·fee_rate_ppm/1e6``) plus a small epsilon
  so equal-fee routes still prefer fewer hops (RouTEE-style fee-aware
  hub selection).

Capacity awareness: with ``amount > 0`` any edge advertising less
directional capacity than the amount is excluded before search.

Planning is cached at two levels, both invalidated by the view's
``version`` counter: whole routes keyed ``(source, target, amount,
attempt)`` (hits/misses exported as ``routing.cache_hits`` /
``routing.cache_misses``), and per-source shortest-path trees so that
replaying thousands of payments from the same senders over a 10k-node
graph costs one Dijkstra per distinct source, not per payment.
"""

from __future__ import annotations

import heapq
import math
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import ReproError, RoutingError
from repro.network.topology import Overlay
from repro.obs import MetricsRegistry, get_metrics
from repro.routing.topology import EdgeInfo, TopologyView

CostFn = Callable[[EdgeInfo, int], float]

# Epsilon per hop in the fee cost: breaks fee ties toward shorter paths
# without ever outweighing a 1-unit fee difference on realistic routes.
_HOP_EPSILON = 1e-6


def _hop_cost(edge: EdgeInfo, amount: int) -> float:
    return 1.0


def _fee_cost(edge: EdgeInfo, amount: int) -> float:
    return edge.fee_base + amount * edge.fee_rate_ppm / 1_000_000 + _HOP_EPSILON


_BUILTIN_COSTS: Dict[str, CostFn] = {"hops": _hop_cost, "fees": _fee_cost}


class RoutePlanner:
    """Route selection over a :class:`TopologyView`."""

    def __init__(
        self,
        view: TopologyView,
        *,
        cost: "str | CostFn" = "hops",
        metrics: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> None:
        self.view = view
        if callable(cost):
            self._cost: CostFn = cost
            self.cost_name = getattr(cost, "__name__", "custom")
        else:
            try:
                self._cost = _BUILTIN_COSTS[cost]
            except KeyError:
                raise ReproError(f"unknown cost model {cost!r}") from None
            self.cost_name = cost
        self._metrics = metrics if metrics is not None else get_metrics()
        self._seed = seed
        self._hits = 0
        self._misses = 0
        self._version = -1
        self._adjacency: Dict[str, List[EdgeInfo]] = {}
        self._min_capacity = 0
        self._route_cache: Dict[Tuple[str, str, int, int],
                                Optional[List[str]]] = {}
        # (source, effective_amount) -> predecessor map of the
        # shortest-path tree rooted at source.
        self._trees: Dict[Tuple[str, int], Dict[str, Optional[str]]] = {}

    @classmethod
    def from_overlay(
        cls,
        overlay: Overlay,
        *,
        capacity: Optional[int] = None,
        capacities: Optional[Mapping[Tuple[str, str], int]] = None,
        cost: "str | CostFn" = "hops",
        metrics: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ) -> "RoutePlanner":
        """Planner over a full-knowledge view of a static overlay."""
        view = TopologyView.from_overlay(overlay, capacity=capacity,
                                         capacities=capacities)
        return cls(view, cost=cost, metrics=metrics, seed=seed)

    # -- cache maintenance --------------------------------------------

    def _refresh(self) -> None:
        if self._version == self.view.version:
            return
        adjacency: Dict[str, List[EdgeInfo]] = {}
        min_capacity: Optional[int] = None
        for edge in self.view.edges():
            adjacency.setdefault(edge.source, []).append(edge)
            adjacency.setdefault(edge.target, [])
            if min_capacity is None or edge.capacity < min_capacity:
                min_capacity = edge.capacity
        # Deterministic neighbour order: sorted by name, then a seeded
        # rotation so distinct seeds can explore distinct equal-cost
        # tie-breaks while a fixed seed always replays the same routes.
        for edges in adjacency.values():
            edges.sort(key=lambda e: (e.target, e.channel_id))
            if self._seed and len(edges) > 1:
                pivot = self._seed % len(edges)
                edges[:] = edges[pivot:] + edges[:pivot]
        self._adjacency = adjacency
        self._min_capacity = min_capacity if min_capacity is not None else 0
        self._route_cache.clear()
        self._trees.clear()
        self._version = self.view.version

    def _effective_amount(self, amount: int) -> int:
        """Amounts below every edge's capacity share one tree/cache slot:
        the capacity filter cannot exclude anything, and for the "fees"
        cost the proportional term scales all edges of a path equally
        only when fee rates are uniform — so fold amounts together only
        under the hop cost, where cost is amount-independent."""
        if amount <= 0:
            return 0
        if self._cost is _hop_cost and amount <= self._min_capacity:
            return 0
        return amount

    def _usable(self, edge: EdgeInfo, amount: int) -> bool:
        return amount <= 0 or edge.capacity >= amount

    # -- shortest-path trees ------------------------------------------

    def _tree(self, source: str,
              effective: int) -> Dict[str, Optional[str]]:
        key = (source, effective)
        tree = self._trees.get(key)
        if tree is None:
            tree = self._dijkstra(source, effective)
            self._trees[key] = tree
        return tree

    def _dijkstra(self, source: str,
                  amount: int) -> Dict[str, Optional[str]]:
        """Predecessor map for the whole tree rooted at ``source``.

        A plain binary-heap Dijkstra; with the hop cost the heap
        degenerates to BFS order.  Entries carry an insertion counter so
        equal-cost pops resolve by discovery order — deterministic for a
        fixed adjacency order (hence fixed seed)."""
        parents: Dict[str, Optional[str]] = {source: None}
        dist: Dict[str, float] = {source: 0.0}
        counter = 0
        heap: List[Tuple[float, int, str]] = [(0.0, counter, source)]
        while heap:
            d, _, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")):
                continue
            for edge in self._adjacency.get(node, ()):
                if not self._usable(edge, amount):
                    continue
                nd = d + self._cost(edge, amount)
                if nd < dist.get(edge.target, float("inf")):
                    dist[edge.target] = nd
                    parents[edge.target] = node
                    counter += 1
                    heapq.heappush(heap, (nd, counter, edge.target))
        return parents

    # -- public API ---------------------------------------------------

    def find_route(self, source: str, target: str,
                   amount: int = 0) -> List[str]:
        """Cheapest usable path ``[source, ..., target]``.

        Raises :class:`RoutingError` when either endpoint is unknown or
        no usable path exists (e.g. every candidate edge is below
        ``amount``)."""
        route = self.try_route(source, target, amount)
        if route is None:
            raise RoutingError(
                f"no route from {source} to {target}"
                + (f" for amount {amount}" if amount > 0 else "")
            )
        return route

    def try_route(self, source: str, target: str,
                  amount: int = 0) -> Optional[List[str]]:
        """Like :meth:`find_route` but None instead of raising."""
        return self.route_for_attempt(source, target, 0, amount)

    def route_for_attempt(self, source: str, target: str, attempt: int,
                          amount: int = 0) -> Optional[List[str]]:
        """The route for the ``attempt``-th retry of a payment.

        Attempt 0 is the cheapest path; attempt *k* is the (k+1)-th
        simple path in cost order (the §7.4 dynamic-routing policy of
        retrying over incrementally longer paths).  When fewer simple
        paths exist than attempts made, the longest available one is
        returned; None when the pair is disconnected."""
        if attempt < 0:
            raise ReproError("attempt must be non-negative")
        self._refresh()
        effective = self._effective_amount(amount)
        key = (source, target, effective, attempt)
        cached = self._route_cache.get(key, _MISSING)
        if cached is not _MISSING:
            self._hits += 1
            if self._metrics.enabled:
                self._metrics.inc("routing.cache_hits")
            return cached
        self._misses += 1
        if self._metrics.enabled:
            self._metrics.inc("routing.cache_misses")
        if attempt == 0:
            route = self._shortest(source, target, effective)
        else:
            try:
                routes = list(self.iter_routes(source, target,
                                               limit=attempt + 1,
                                               amount=amount))
            except RoutingError:
                routes = []
            route = routes[min(attempt, len(routes) - 1)] if routes else None
        self._route_cache[key] = route
        return route

    def _shortest(self, source: str, target: str,
                  effective: int) -> Optional[List[str]]:
        if source == target:
            return [source] if source in self._adjacency else None
        if source not in self._adjacency or target not in self._adjacency:
            return None
        parents = self._tree(source, effective)
        if target not in parents:
            return None
        path = [target]
        while path[-1] != source:
            path.append(parents[path[-1]])  # type: ignore[arg-type]
        path.reverse()
        return path

    def iter_routes(self, source: str, target: str,
                    limit: Optional[int] = None,
                    amount: int = 0) -> Iterator[List[str]]:
        """Usable simple paths from cheapest to costliest.

        Raises :class:`RoutingError` (on first iteration) when no usable
        path exists."""
        import networkx

        self._refresh()
        effective = self._effective_amount(amount)
        graph = networkx.DiGraph()
        for node in sorted(self._adjacency):
            graph.add_node(node)
        for node in sorted(self._adjacency):
            for edge in self._adjacency[node]:
                if self._usable(edge, effective):
                    graph.add_edge(edge.source, edge.target,
                                   weight=self._cost(edge, effective))
        weight = None if self._cost is _hop_cost else "weight"
        try:
            paths = networkx.shortest_simple_paths(graph, source, target,
                                                   weight=weight)
            for count, path in enumerate(paths):
                if limit is not None and count >= limit:
                    return
                yield path
        except (networkx.NetworkXNoPath, networkx.NodeNotFound,
                networkx.NetworkXError) as exc:
            raise RoutingError(
                f"no route from {source} to {target}") from exc

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self._hits,
            "misses": self._misses,
            "routes": len(self._route_cache),
            "trees": len(self._trees),
            "version": self._version,
        }


class _Missing:
    __slots__ = ()


_MISSING = _Missing()


# ---------------------------------------------------------------------
# Analysis helpers for the routing benchmarks.
# ---------------------------------------------------------------------


def path_length(path: Sequence[str]) -> int:
    """Number of hops (channels) in a node path."""
    return max(0, len(path) - 1)


def load_concentration(counts: Mapping[str, int],
                       top_fraction: float = 0.01) -> float:
    """Share of total load carried by the busiest ``top_fraction`` of
    nodes — the hub-concentration metric of the routing benchmark.

    With *n* loaded nodes the top ``max(1, ceil(top_fraction·n))``
    carry the returned fraction of the summed counts; 0.0 when there is
    no load at all."""
    if not 0 < top_fraction <= 1:
        raise ReproError("top_fraction must be in (0, 1]")
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    ranked = sorted(counts.values(), reverse=True)
    top_n = max(1, math.ceil(len(ranked) * top_fraction))
    return sum(ranked[:top_n]) / total
