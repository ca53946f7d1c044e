"""Observability subsystem: metrics math, trace ring, no-op defaults,
and the JSON sidecar round-trip."""

import json

import pytest

from repro import obs
from repro.obs import (
    DEFAULT_BUCKETS,
    NO_TRACE,
    NOOP,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Tracer,
    exponential_buckets,
    linear_buckets,
)
from repro.simulation import Clock, Scheduler


class TestCounterGauge:
    def test_counter_math(self):
        registry = MetricsRegistry()
        registry.inc("payments")
        registry.inc("payments", 4)
        assert registry.counter("payments").value == 5

    def test_counter_identity_per_name(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.counter("a") is not registry.counter("b")

    def test_gauge_tracks_peak(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 3)
        registry.set_gauge("depth", 10)
        registry.set_gauge("depth", 2)
        gauge = registry.gauge("depth")
        assert gauge.value == 2
        assert gauge.peak == 10

    def test_gauge_add(self):
        registry = MetricsRegistry()
        registry.gauge("w").add(5)
        registry.gauge("w").add(-2)
        assert registry.gauge("w").value == 3


class TestHistogram:
    def test_bucket_counts(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.5, 3.0, 100.0):
            histogram.record(value)
        # bounds are inclusive upper bounds; 100 lands in overflow.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(106.0)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 100.0
        assert histogram.mean == pytest.approx(106.0 / 5)

    def test_quantile_approximation(self):
        histogram = Histogram("h", bounds=tuple(float(i) for i in range(1, 11)))
        for value in range(1, 101):
            histogram.record(value / 10.0)
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        assert histogram.quantile(1.0) == pytest.approx(10.0)
        assert Histogram("empty").quantile(0.5) is None

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Histogram("bad", bounds=(2.0, 1.0))

    def test_bucket_helpers(self):
        assert linear_buckets(0.1, 0.1, 3) == (0.1, pytest.approx(0.2),
                                               pytest.approx(0.3))
        assert exponential_buckets(1, 2, 4) == (1, 2, 4, 8)

    def test_observe_creates_with_custom_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.15, buckets=(0.1, 0.2))
        assert registry.histogram("lat").bounds == (0.1, 0.2)


class TestNoOpDefault:
    def test_module_default_is_noop(self):
        assert obs.get_metrics() is NOOP
        assert obs.get_tracer() is NO_TRACE
        assert NOOP.enabled is False
        assert NO_TRACE.enabled is False

    def test_noop_records_nothing(self):
        NOOP.inc("x", 100)
        NOOP.set_gauge("g", 1.0)
        NOOP.observe("h", 5.0)
        NOOP.counter("x").inc()
        snapshot = NOOP.snapshot()
        assert snapshot == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_noop_instruments_are_shared_singletons(self):
        assert NOOP.counter("a") is NOOP.counter("b")
        assert NOOP.histogram("a") is NOOP.histogram("b")

    def test_noop_span_and_emit_are_safe(self):
        obs.emit("anything", key=1)
        with obs.span("anything"):
            pass

    def test_collecting_installs_and_restores(self):
        with obs.collecting() as (registry, tracer):
            assert obs.get_metrics() is registry
            assert obs.get_tracer() is tracer
            obs.get_metrics().inc("seen")
        assert obs.get_metrics() is NOOP
        assert obs.get_tracer() is NO_TRACE
        assert registry.counter("seen").value == 1

    def test_collecting_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.collecting():
                raise RuntimeError("boom")
        assert obs.get_metrics() is NOOP

    def test_scheduler_with_noop_collects_nothing(self):
        scheduler = Scheduler()
        scheduler.call_after(1.0, lambda: None)
        scheduler.run()
        assert obs.get_metrics().snapshot()["counters"] == {}


class TestTracer:
    def test_events_stamped_with_bound_clock(self):
        clock = Clock()
        tracer = Tracer(now=lambda: clock.now)
        tracer.emit("start")
        clock.advance_to(2.5)
        tracer.emit("later", detail="x")
        events = tracer.events()
        assert events[0] == {"t": 0.0, "event": "start"}
        assert events[1] == {"t": 2.5, "event": "later", "detail": "x"}

    def test_span_measures_simulated_duration(self):
        clock = Clock()
        tracer = Tracer(now=lambda: clock.now)
        with tracer.span("work", tag="a"):
            clock.advance_to(3.0)
        (event,) = tracer.events()
        assert event["event"] == "work"
        assert event["duration"] == pytest.approx(3.0)
        assert event["tag"] == "a"

    def test_ring_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for index in range(5):
            tracer.emit(f"e{index}")
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [event["event"] for event in tracer.events()] == \
            ["e2", "e3", "e4"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_scheduler_driven_simulation_traces_sim_time(self):
        with obs.collecting() as (_registry, tracer):
            scheduler = Scheduler()
            tracer.bind_clock(lambda: scheduler.now)
            scheduler.call_after(1.5, lambda: obs.emit("fired"))
            scheduler.run()
        (event,) = tracer.events()
        assert event["t"] == pytest.approx(1.5)


class TestSchedulerMetrics:
    def test_events_and_cancellations_counted(self):
        registry = MetricsRegistry()
        scheduler = Scheduler(metrics=registry)
        event = scheduler.call_after(0.5, lambda: None)
        event.cancel()
        scheduler.call_after(1.0, lambda: None)
        scheduler.call_after(2.0, lambda: None)
        scheduler.run()
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.events_processed"] == 2
        assert counters["scheduler.cancelled_skipped"] == 1
        assert scheduler.cancelled_skipped == 1


class TestJsonExport:
    def test_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("count", 3)
        registry.set_gauge("depth", 7)
        registry.observe("lat", 0.03)
        tracer = Tracer()
        tracer.emit("evt", detail=1)
        path = tmp_path / "BENCH_test.json"
        payload = obs.export_json(str(path), metrics=registry, tracer=tracer,
                                  extra={"experiment": "unit"})
        loaded = obs.load_json(str(path))
        assert loaded == json.loads(obs.dump_json(payload))
        assert loaded["experiment"] == "unit"
        assert loaded["metrics"]["counters"]["count"] == 3
        assert loaded["metrics"]["gauges"]["depth"]["value"] == 7
        histogram = loaded["metrics"]["histograms"]["lat"]
        assert histogram["count"] == 1
        assert histogram["bounds"] == list(DEFAULT_BUCKETS)
        assert loaded["trace"]["events"] == [
            {"t": 0.0, "event": "evt", "detail": 1}]

    def test_sets_serialised_as_sorted_lists(self, tmp_path):
        path = tmp_path / "s.json"
        obs.export_json(str(path), extra={"values": {"b", "a"}})
        assert obs.load_json(str(path))["values"] == ["a", "b"]

    def test_snapshot_is_json_serialisable(self):
        registry = MetricsRegistry()
        registry.inc("c")
        registry.observe("h", 1.0)
        json.dumps(registry.snapshot())


class TestInstrumentedProtocols:
    def test_multihop_stage_metrics(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with obs.collecting() as (registry, _tracer):
            alice.pay_multihop([alice, bob, carol], 1_000)
        counters = registry.snapshot()["counters"]
        # Each of the three participants finishes its session.
        assert counters["multihop.completed"] == 3
        assert any(name.startswith("multihop.stage[")
                   for name in counters)
        histograms = registry.snapshot()["histograms"]
        assert any(name.startswith("multihop.stage_seconds[")
                   for name in histograms)

    def test_replication_metrics(self, network):
        alice = network.create_node("alice", funds=100_000)
        bob = network.create_node("bob", funds=100_000)
        with obs.collecting() as (registry, _tracer):
            alice.attach_committee(backups=2, threshold=2)
            channel = alice.open_channel(bob)
            deposit = alice.create_deposit(50_000)
            alice.approve_and_associate(bob, deposit, channel)
            alice.pay(channel, 1_000)
        counters = registry.snapshot()["counters"]
        assert counters["replication.chain_updates"] >= 3
        assert counters["replication.member_updates"] == \
            2 * counters["replication.chain_updates"]
        blob = registry.snapshot()["histograms"]["replication.blob_bytes"]
        assert blob["count"] == counters["replication.chain_updates"]
        assert blob["sum"] > 0


class TestHarnessSidecar:
    def test_write_sidecar_has_metrics_key(self, tmp_path):
        from repro.bench.harness import ExperimentResult, write_sidecar

        registry = MetricsRegistry()
        registry.inc("netsim.retries", 9)
        path = write_sidecar(
            "unit", [ExperimentResult("t", "cfg", "tp", 10.0, 20.0, "tx/s")],
            metrics=registry, directory=str(tmp_path),
        )
        assert path.endswith("BENCH_unit.json")
        loaded = obs.load_json(path)
        assert loaded["benchmark"] == "unit"
        assert loaded["results"][0]["measured"] == 10.0
        assert loaded["results"][0]["ratio"] == pytest.approx(0.5)
        assert loaded["metrics"]["counters"]["netsim.retries"] == 9


class TestQuantileHelper:
    """Nearest-rank quantiles: the helper behind the chaos benchmark's
    latency percentiles."""

    def test_quantile_is_order_statistic_exact(self):
        from repro.obs import nearest_rank
        # rank = ceil(q·n), 1-based: p95 of 1..100 is the 95th value.
        # The naive ordered[int(n*q)] indexing this replaced is 0-based,
        # off by one rank — it returned the 96th.
        samples = list(range(1, 101))
        assert nearest_rank(samples, 0.95) == 95
        assert samples[int(len(samples) * 0.95)] == 96  # the old bug
        # Small n: naive p90 of ten samples indexed ordered[9] — the max.
        samples = list(range(1, 11))
        assert nearest_rank(samples, 0.9) == 9
        assert samples[int(len(samples) * 0.9)] == 10  # the old bug

    def test_median_of_even_sample_is_lower_middle(self):
        from repro.obs import nearest_rank
        # Nearest rank is order-statistic exact: ceil(0.5*4) = 2nd value,
        # not the upper middle the naive n//2 indexing produced.
        assert nearest_rank([1, 2, 3, 4], 0.5) == 2
        assert nearest_rank([1, 2, 3], 0.5) == 2

    def test_edge_quantiles_and_unsorted_input(self):
        from repro.obs import nearest_rank
        samples = [5.0, 1.0, 3.0]
        assert nearest_rank(samples, 0.0) == 1.0
        assert nearest_rank(samples, 1.0) == 5.0
        assert nearest_rank([42.0], 0.5) == 42.0

    def test_invalid_inputs_rejected(self):
        from repro.obs import nearest_rank
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], -0.1)
