"""Workload generation and the benchmark models' structural properties."""

import pytest

from repro.bench.calibration import Calibration
from repro.bench.harness import ExperimentResult, comparison_table, within_factor
from repro.bench.netsim import NetworkSimulation, NetworkSimulationConfig
from repro.bench.timing import (
    ChannelTimingModel,
    MultihopTimingModel,
    committee_chain_latency,
)
from repro.errors import ReproError, WorkloadError
from repro.network.topology import (
    Overlay,
    complete_graph_overlay,
    fig3_topology,
    hub_and_spoke_overlay,
)
from repro.workloads import (
    assign_addresses_skewed,
    filter_for_replay,
    generate_raw_transactions,
    generate_trace,
)
from repro.workloads.assignment import HashRing, assign_addresses_balanced
from repro.workloads.bitcoin_trace import DEFAULT_VALUE_THRESHOLD_SATOSHI


class TestTraceGeneration:
    def test_exact_count(self):
        assert len(generate_trace(500, seed=1)) == 500

    def test_deterministic_per_seed(self):
        assert generate_trace(100, seed=7) == generate_trace(100, seed=7)
        assert generate_trace(100, seed=7) != generate_trace(100, seed=8)

    def test_filter_drops_multisig(self):
        raw = list(generate_raw_transactions(2_000, seed=2,
                                             multisig_fraction=1.0))
        assert filter_for_replay(raw) == []

    def test_filter_drops_high_value(self):
        raw = list(generate_raw_transactions(2_000, seed=3))
        payments = filter_for_replay(raw)
        assert all(p.value <= DEFAULT_VALUE_THRESHOLD_SATOSHI
                   for p in payments)

    def test_filter_drops_self_payments(self):
        raw = list(generate_raw_transactions(2_000, seed=4))
        payments = filter_for_replay(raw)
        assert all(p.sender != p.recipient for p in payments)

    def test_high_value_fraction_roughly_respected(self):
        raw = list(generate_raw_transactions(5_000, seed=5,
                                             high_value_fraction=0.10))
        over = sum(1 for t in raw
                   if t.value > DEFAULT_VALUE_THRESHOLD_SATOSHI)
        assert 0.04 < over / len(raw) < 0.20

    def test_popularity_is_skewed(self):
        payments = generate_trace(5_000, seed=6)
        counts = {}
        for payment in payments:
            counts[payment.sender] = counts.get(payment.sender, 0) + 1
        top = max(counts.values())
        assert top > 5 * (len(payments) / len(counts))  # heavy head

    def test_address_universe_minimum(self):
        with pytest.raises(WorkloadError):
            list(generate_raw_transactions(1, address_count=1))


class TestAssignment:
    def test_skewed_shares(self):
        addresses = [f"a{i}" for i in range(1_000)]
        tier_of = {"hub": 1, "mid": 2, "leaf": 3}
        assignment = assign_addresses_skewed(addresses, tier_of)
        hub_share = list(assignment.values()).count("hub") / 1_000
        assert 0.45 < hub_share < 0.55

    def test_skewed_requires_all_tiers(self):
        with pytest.raises(WorkloadError):
            assign_addresses_skewed(["a"], {"hub": 1})

    def test_balanced_splits_weight(self):
        weights = {"hot": 100, **{f"c{i}": 1 for i in range(99)}}
        assignment = assign_addresses_balanced(weights, ["m1", "m2"])
        load = {"m1": 0, "m2": 0}
        for address, machine in assignment.items():
            load[machine] += weights[address]
        assert abs(load["m1"] - load["m2"]) <= 100


class TestHashRing:
    def test_deterministic_across_instances(self):
        """Two independently built rings agree on every key — the
        property that lets every router process route without
        coordination."""
        keys = [f"peer{i}" for i in range(200)]
        first = HashRing(["w0", "w1", "w2", "w3"])
        second = HashRing(["w3", "w1", "w0", "w2"])  # insertion order differs
        assert [first.owner(k) for k in keys] == [second.owner(k) for k in keys]

    def test_all_nodes_receive_keys(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        owners = {ring.owner(f"peer{i}") for i in range(500)}
        assert owners == {"w0", "w1", "w2", "w3"}

    def test_distribution_is_roughly_even(self):
        ring = HashRing([f"w{i}" for i in range(4)], replicas=128)
        counts = {f"w{i}": 0 for i in range(4)}
        for i in range(4_000):
            counts[ring.owner(f"peer{i}")] += 1
        # Consistent hashing is only statistically even; with 128 virtual
        # nodes each worker should land within a factor of ~2 of fair.
        assert min(counts.values()) > 1_000 / 2
        assert max(counts.values()) < 1_000 * 2

    def test_removal_only_moves_removed_nodes_keys(self):
        ring = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"peer{i}" for i in range(300)]
        before = {key: ring.owner(key) for key in keys}
        ring = HashRing(["w0", "w1", "w3"])
        for key in keys:
            if before[key] != "w2":
                assert ring.owner(key) == before[key]
            else:
                assert ring.owner(key) != "w2"

    def test_empty_ring_rejected(self):
        with pytest.raises(WorkloadError):
            HashRing([]).owner("anything")

    def test_add_is_idempotent(self):
        ring = HashRing(["w0", "w1"])
        ring.add("w0")
        assert ring.nodes == ["w0", "w1"]

    def test_add_one_worker_moves_bounded_share(self):
        """The stability bound documented on :class:`HashRing`: adding
        one worker to N moves only the keys the newcomer captures —
        ``keys/(N+1)`` in expectation, under ``2 × keys/(N+1)``
        observed with 64 replicas — and every moved key moves *to* the
        newcomer, never between survivors."""
        workers = 4
        keys = [f"account:key{i}" for i in range(10_000)]
        ring = HashRing([f"w{i}" for i in range(workers)])
        before = {key: ring.owner(key) for key in keys}
        ring.add("w-new")
        moved = {key for key in keys if ring.owner(key) != before[key]}
        assert moved, "the new worker captured nothing"
        assert all(ring.owner(key) == "w-new" for key in moved)
        assert len(moved) <= 2 * len(keys) // (workers + 1)

    def test_remove_one_worker_moves_only_its_keys(self):
        keys = [f"account:key{i}" for i in range(10_000)]
        ring = HashRing([f"w{i}" for i in range(5)])
        before = {key: ring.owner(key) for key in keys}
        ring = HashRing(["w0", "w1", "w2", "w4"])
        moved = {key for key in keys if ring.owner(key) != before[key]}
        assert moved == {key for key in keys if before[key] == "w3"}


class TestTimingModels:
    def test_chain_latency_sums_hops(self):
        topology = fig3_topology()
        assert committee_chain_latency(topology, "US", ("IL",)) == \
            pytest.approx(0.140)
        assert committee_chain_latency(topology, "US", ("IL", "UK")) == \
            pytest.approx(0.140 + 0.060)

    def test_throughput_ladder(self):
        model = ChannelTimingModel.paper_setup()
        assert model.payment_throughput(0) > model.payment_throughput(1)
        assert model.payment_throughput(1) == model.payment_throughput(2)
        assert model.payment_throughput(0, stable_storage=True) == 10.0

    def test_latency_ladder(self):
        model = ChannelTimingModel.paper_setup()
        ladder = [model.payment_latency(r) for r in range(4)]
        assert ladder == sorted(ladder)

    def test_batching_adds_window_latency(self):
        model = ChannelTimingModel.paper_setup()
        assert model.payment_latency(0, batching=True) == pytest.approx(
            model.payment_latency(0) + 0.100)

    def test_multihop_noft_is_twice_ln(self):
        model = MultihopTimingModel.paper_setup()
        for hops in (2, 5, 11):
            assert model.teechain_latency(hops, 0) == pytest.approx(
                2 * model.lightning_latency(hops))

    def test_multihop_throughput_ratio_in_paper_band(self):
        model = MultihopTimingModel.paper_setup()
        for hops in (2, 11):
            ratio = (model.teechain_throughput(hops)
                     / model.lightning_throughput(hops))
            assert 12 < ratio < 32

    def test_replication_throughput_independent_of_length(self):
        calibration = Calibration()
        assert calibration.node_capacity(2) > calibration.node_capacity(3)
        assert calibration.replication_throughput() == pytest.approx(
            90e6 / (8 * 330))


class TestNetworkSimulation:
    def test_complete_graph_scales_with_nodes(self):
        def run(nodes):
            config = NetworkSimulationConfig(
                overlay=complete_graph_overlay(
                    [f"m{i}" for i in range(nodes)]),
                payment_count=4_000,
            )
            return NetworkSimulation(config).run().throughput

        assert run(10) > 1.5 * run(5)

    def test_hub_spoke_collapses(self):
        complete = NetworkSimulation(NetworkSimulationConfig(
            overlay=complete_graph_overlay([f"m{i}" for i in range(10)]),
            payment_count=4_000)).run().throughput
        hub = NetworkSimulation(NetworkSimulationConfig(
            overlay=hub_and_spoke_overlay(), payment_count=2_000,
        )).run().throughput
        assert complete > 100 * hub

    def test_fault_tolerance_costs_throughput(self):
        def run(n):
            config = NetworkSimulationConfig(
                overlay=hub_and_spoke_overlay(), committee_size=n,
                payment_count=2_000)
            return NetworkSimulation(config).run().throughput

        assert run(1) > 1.5 * run(2)

    def test_all_payments_resolve(self):
        config = NetworkSimulationConfig(overlay=hub_and_spoke_overlay(),
                                         payment_count=2_000)
        simulation = NetworkSimulation(config)
        queued = sum(len(q) for q in simulation._queues.values())
        result = simulation.run()
        assert result.completed + result.failed == queued

    def test_deterministic_per_seed(self):
        def run(seed):
            config = NetworkSimulationConfig(
                overlay=hub_and_spoke_overlay(), payment_count=1_000,
                seed=seed)
            return NetworkSimulation(config).run().throughput

        assert run(3) == run(3)

    def test_disconnected_overlay_dynamic_routing_completes(self):
        # A partitioned overlay under dynamic routing must finish the run
        # with failures recorded — not leak a networkx exception out of
        # the path generator mid-iteration.
        overlay = Overlay(
            nodes=("hub", "mid", "leaf", "island"),
            channels=(("hub", "mid"), ("mid", "leaf")),
            tier_of={"hub": 1, "mid": 2, "leaf": 3, "island": 3},
        )
        config = NetworkSimulationConfig(
            overlay=overlay, routing="dynamic", payment_count=500)
        simulation = NetworkSimulation(config)
        queued = sum(len(q) for q in simulation._queues.values())
        result = simulation.run()
        assert result.failed > 0
        assert result.completed > 0
        assert result.completed + result.failed == queued

    def test_metrics_collection_does_not_perturb_results(self):
        from repro import obs

        def run():
            config = NetworkSimulationConfig(
                overlay=hub_and_spoke_overlay(), payment_count=1_000)
            result = NetworkSimulation(config).run()
            return (result.completed, result.failed, result.makespan,
                    result.total_latency, result.total_hops, result.retries)

        baseline = run()
        with obs.collecting() as (registry, _tracer):
            instrumented = run()
        assert instrumented == baseline
        snapshot = registry.snapshot()
        assert snapshot["counters"]["netsim.completed"] == baseline[0]
        assert any(name.startswith("netsim.link_occupancy[")
                   for name in snapshot["histograms"])
        assert snapshot["histograms"]["netsim.retry_backoff"]["count"] > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ReproError):
            NetworkSimulationConfig(overlay=hub_and_spoke_overlay(),
                                    routing="teleport")
        with pytest.raises(ReproError):
            NetworkSimulationConfig(overlay=hub_and_spoke_overlay(),
                                    committee_size=0)


class TestHarness:
    def test_ratio(self):
        result = ExperimentResult("t", "c", "m", measured=150.0, paper=100.0)
        assert result.ratio == pytest.approx(1.5)

    def test_ratio_without_paper_value(self):
        assert ExperimentResult("t", "c", "m", 1.0).ratio is None

    def test_within_factor(self):
        assert within_factor(120, 100, 1.25)
        assert within_factor(80, 100, 1.25)
        assert not within_factor(200, 100, 1.25)

    def test_table_renders(self):
        table = comparison_table("Title", [
            ExperimentResult("t", "config", "throughput", 1234.5, 1000.0,
                             "tx/s")])
        assert "Title" in table
        assert "1,234.5" in table
