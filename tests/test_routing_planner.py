"""RoutePlanner unit tests: determinism, caching, cost models, capacity.

The planner is the single route-selection implementation shared by the
DES (`repro.bench.netsim`) and the live daemons (`route` /
`pay-multihop dest=`) — so its contract is pinned here, independent of
either consumer.
"""

import pytest

from repro.errors import RoutingError
from repro.network.topology import hub_and_spoke_overlay
from repro.obs import MetricsRegistry
from repro.routing import RoutePlanner, TopologyView
from repro.workloads import scale_free_overlay


def _bidirectional(view, a, b, capacity, *, fee_base=0, fee_rate_ppm=0,
                   seq=0):
    cid = f"{min(a, b)}--{max(a, b)}"
    for origin, peer in ((a, b), (b, a)):
        view.upsert(origin=origin, peer=peer, channel_id=cid,
                    capacity=capacity, seq=seq, fee_base=fee_base,
                    fee_rate_ppm=fee_rate_ppm)


def _line_view(names, capacity=100):
    view = TopologyView()
    for a, b in zip(names, names[1:]):
        _bidirectional(view, a, b, capacity)
    return view


class TestDeterminism:
    def test_same_topology_same_seed_same_routes(self):
        overlay = scale_free_overlay(200, attach=2, seed=7)
        pairs = [(f"n{i}", f"n{199 - i}") for i in range(0, 60, 3)]
        first = RoutePlanner.from_overlay(overlay, seed=3)
        second = RoutePlanner.from_overlay(overlay, seed=3)
        for source, target in pairs:
            assert (first.find_route(source, target)
                    == second.find_route(source, target))
            # k-shortest enumeration is deterministic too.
            assert (list(first.iter_routes(source, target, limit=3))
                    == list(second.iter_routes(source, target, limit=3)))

    def test_attempt_sequence_is_reproducible(self):
        overlay = hub_and_spoke_overlay()
        first = RoutePlanner.from_overlay(overlay, seed=5)
        second = RoutePlanner.from_overlay(overlay, seed=5)
        spokes = [n for n in overlay.nodes if overlay.tier_of[n] == 3]
        for attempt in range(4):
            assert (first.route_for_attempt(spokes[0], spokes[-1], attempt)
                    == second.route_for_attempt(spokes[0], spokes[-1],
                                                attempt))

    def test_routes_are_valid_paths(self):
        overlay = scale_free_overlay(100, attach=2, seed=1)
        planner = RoutePlanner.from_overlay(overlay, seed=1)
        channels = {frozenset(c) for c in overlay.channels}
        route = planner.find_route("n3", "n97")
        assert route[0] == "n3" and route[-1] == "n97"
        for a, b in zip(route, route[1:]):
            assert frozenset((a, b)) in channels


class TestCache:
    def test_repeat_queries_hit_the_cache(self):
        metrics = MetricsRegistry()
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay(),
                                            metrics=metrics)
        planner.find_route("Nleaf1", "Nleaf18")
        info = planner.cache_info()
        assert info["misses"] >= 1
        before_hits = info["hits"]
        planner.find_route("Nleaf1", "Nleaf18")
        assert planner.cache_info()["hits"] == before_hits + 1
        snap = metrics.snapshot()["counters"]
        assert snap["routing.cache_hits"] == planner.cache_info()["hits"]
        assert snap["routing.cache_misses"] == planner.cache_info()["misses"]

    def test_view_change_invalidates_cached_routes(self):
        view = _line_view(["a", "b", "c"])
        planner = RoutePlanner(view)
        assert planner.find_route("a", "c") == ["a", "b", "c"]
        # A new channel a--c makes a shorter route; the planner must see
        # it on the next query, not serve the stale cached path.
        _bidirectional(view, "a", "c", 100)
        assert planner.find_route("a", "c") == ["a", "c"]
        assert planner.cache_info()["routes"] <= 1  # caches were flushed

    def test_amount_folding_shares_cache_entries(self):
        # Amounts at or below every edge capacity can't change the
        # route, so they fold to one cache entry.
        view = _line_view(["a", "b", "c"], capacity=1_000)
        planner = RoutePlanner(view)
        planner.find_route("a", "c", amount=1)
        before = planner.cache_info()["misses"]
        planner.find_route("a", "c", amount=999)
        assert planner.cache_info()["misses"] == before


class TestCostModels:
    def _fee_topology(self):
        # a--b--d charges fees; a--x--y--d is longer but free.
        view = TopologyView()
        _bidirectional(view, "a", "b", 100, fee_base=50)
        _bidirectional(view, "b", "d", 100, fee_base=50)
        _bidirectional(view, "a", "x", 100)
        _bidirectional(view, "x", "y", 100)
        _bidirectional(view, "y", "d", 100)
        return view

    def test_hop_cost_prefers_short(self):
        planner = RoutePlanner(self._fee_topology(), cost="hops")
        assert planner.find_route("a", "d") == ["a", "b", "d"]

    def test_fee_cost_prefers_cheap(self):
        planner = RoutePlanner(self._fee_topology(), cost="fees")
        assert planner.find_route("a", "d", amount=10) == ["a", "x", "y",
                                                           "d"]

    def test_custom_cost_callable(self):
        # A cost that loathes node b routes around it.
        def avoid_b(edge, amount):
            return 1_000.0 if "b" in (edge.source, edge.target) else 1.0

        planner = RoutePlanner(self._fee_topology(), cost=avoid_b)
        assert "b" not in planner.find_route("a", "d")


class TestCapacity:
    def test_underfunded_edges_are_excluded(self):
        view = TopologyView()
        _bidirectional(view, "a", "b", 5)     # too small for amount=10
        _bidirectional(view, "b", "d", 100)
        _bidirectional(view, "a", "x", 100)
        _bidirectional(view, "x", "d", 100)
        planner = RoutePlanner(view)
        assert planner.find_route("a", "d", amount=10) == ["a", "x", "d"]
        # Below the bottleneck the short route comes back.
        assert planner.find_route("a", "d", amount=5) == ["a", "b", "d"]

    def test_no_route_when_amount_exceeds_all_cuts(self):
        view = _line_view(["a", "b", "c"], capacity=10)
        planner = RoutePlanner(view)
        with pytest.raises(RoutingError):
            planner.find_route("a", "c", amount=11)
        assert planner.try_route("a", "c", amount=11) is None

    def test_directional_capacity(self):
        # Teechain funds each direction separately: a→b can afford 100
        # while b→a only 1.
        view = TopologyView()
        view.upsert(origin="a", peer="b", channel_id="ab", capacity=100,
                    seq=0)
        view.upsert(origin="b", peer="a", channel_id="ab", capacity=1,
                    seq=0)
        planner = RoutePlanner(view)
        assert planner.find_route("a", "b", amount=100) == ["a", "b"]
        with pytest.raises(RoutingError):
            planner.find_route("b", "a", amount=2)


class TestAttempts:
    def test_attempt_zero_is_shortest(self):
        planner = RoutePlanner.from_overlay(hub_and_spoke_overlay())
        assert (planner.route_for_attempt("Nleaf1", "Nleaf18", 0)
                == planner.find_route("Nleaf1", "Nleaf18"))

    def test_later_attempts_walk_the_k_shortest_list(self):
        view = TopologyView()
        _bidirectional(view, "a", "b", 100)
        _bidirectional(view, "b", "d", 100)
        _bidirectional(view, "a", "x", 100)
        _bidirectional(view, "x", "y", 100)
        _bidirectional(view, "y", "d", 100)
        planner = RoutePlanner(view)
        assert planner.route_for_attempt("a", "d", 0) == ["a", "b", "d"]
        assert planner.route_for_attempt("a", "d", 1) == ["a", "x", "y",
                                                          "d"]
        # Attempts beyond the number of distinct paths reuse the last.
        assert planner.route_for_attempt("a", "d", 9) == ["a", "x", "y",
                                                          "d"]

    def test_unreachable_returns_none(self):
        planner = RoutePlanner(_line_view(["a", "b"]))
        assert planner.route_for_attempt("a", "ghost", 0) is None
        assert planner.route_for_attempt("a", "ghost", 2) is None
