"""The distributed tracing plane, tested without sockets.

Covers the pieces the live e2e (test_runtime_trace_live.py) exercises
end-to-end, but in isolation and with synthetic clocks: the causal
context/tracer semantics, the per-daemon :class:`TelemetryCollector`,
NTP-style skew estimation and the multi-node merge, the Perfetto
exporter, the checked-in trace schema, and the
``python -m repro.obs.merge`` CLI.  Also the DES-mode analogue of the
live acceptance test: one multihop payment through the simulator emits
all six pipeline stage spans per hop under a single trace id.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro import obs
from repro.bench.harness import ExperimentResult
from repro.obs import (
    Histogram,
    MetricsRegistry,
    TraceContext,
    Tracer,
    chrome_trace,
    exponential_buckets,
    linear_buckets,
    load_json,
    op_span,
)
from repro.obs.collector import TelemetryCollector
from repro.obs.merge import (
    estimate_offset,
    main as merge_main,
    merge_dumps,
    validate_perfetto,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_PATH = REPO_ROOT / "benchmarks" / "perfetto_trace.schema.json"

STAGES = ["lock", "sign", "preUpdate", "update", "postUpdate", "release"]


class FakeClock:
    """A settable clock for driving tracers and collectors."""

    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt
        return self.t


# ---------------------------------------------------------------------------
# TraceContext
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_root_is_parentless_with_fresh_ids(self):
        root = TraceContext.root()
        assert root.parent_id == ""
        assert root.trace_id and root.span_id
        other = TraceContext.root()
        assert other.trace_id != root.trace_id

    def test_child_keeps_trace_and_chains_parent(self):
        root = TraceContext.root()
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id

    def test_fields_round_trip(self):
        context = TraceContext.root().child()
        fields = context.fields()
        assert set(fields) == {"trace", "span", "parent"}
        rebuilt = TraceContext.from_fields(
            fields["trace"], fields["span"], fields["parent"])
        assert rebuilt == context

    def test_empty_trace_id_is_the_untraced_sentinel(self):
        assert TraceContext.from_fields("", "abc", "def") is None


# ---------------------------------------------------------------------------
# Tracer causal semantics
# ---------------------------------------------------------------------------

class TestTracerCausality:
    def test_emit_without_context_stays_untagged(self):
        tracer = Tracer()
        tracer.emit("plain", detail=1)
        [event] = tracer.events()
        assert "trace" not in event and "span" not in event

    def test_activate_stamps_and_restores(self):
        tracer = Tracer()
        context = TraceContext.root()
        with tracer.activate(context):
            tracer.emit("inside")
        tracer.emit("outside")
        inside, outside = tracer.events()
        assert inside["trace"] == context.trace_id
        assert inside["span"] == context.span_id
        assert "trace" not in outside
        assert tracer.context is None

    def test_activate_none_keeps_current_context(self):
        tracer = Tracer()
        context = TraceContext.root()
        with tracer.activate(context):
            with tracer.activate(None):
                assert tracer.context is context

    def test_span_derives_child_and_events_nest_under_it(self):
        clock = FakeClock()
        tracer = Tracer(now=clock)
        root = TraceContext.root()
        with tracer.activate(root):
            with tracer.span("work") as child:
                clock.advance(1.5)
                tracer.emit("step")
        step, work = tracer.events()
        assert child.parent_id == root.span_id
        # The event inside the span belongs to the span's own context.
        assert step["span"] == child.span_id
        assert work["span"] == child.span_id
        assert work["parent"] == root.span_id
        assert work["duration"] == pytest.approx(1.5)

    def test_root_span_starts_a_fresh_trace(self):
        tracer = Tracer()
        with tracer.root_span("op") as context:
            tracer.emit("inner")
        inner, op = tracer.events()
        assert op["trace"] == context.trace_id
        assert op["parent"] == ""
        assert inner["trace"] == context.trace_id
        assert tracer.context is None

    def test_op_span_roots_then_nests(self):
        with obs.collecting() as (_registry, tracer):
            with op_span("outer") as outer:
                with op_span("inner") as inner:
                    pass
        assert outer.parent_id == ""
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id


# ---------------------------------------------------------------------------
# Metrics satellites: quantile edge cases and bucket validation
# ---------------------------------------------------------------------------

class TestMetricsSatellites:
    def test_quantile_zero_is_the_minimum(self):
        histogram = Histogram("h", bounds=(1.0, 2.0, 4.0))
        # First bucket stays empty: q=0 must not report its bound.
        histogram.record(1.7)
        histogram.record(3.0)
        assert histogram.quantile(0.0) == 1.7
        assert histogram.quantile(1.0) == 4.0

    def test_quantile_rejects_nan_and_out_of_range(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.record(0.5)
        for bad in (float("nan"), -0.1, 1.1):
            with pytest.raises(ValueError):
                histogram.quantile(bad)
        assert Histogram("empty").quantile(0.0) is None

    def test_linear_buckets_reject_nonpositive_width(self):
        for width in (0, -1.0):
            with pytest.raises(ValueError):
                linear_buckets(1.0, width, 4)
        assert linear_buckets(1.0, 0.5, 3) == (1.0, 1.5, 2.0)

    def test_exponential_buckets_reject_bad_factor_and_start(self):
        for factor in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                exponential_buckets(1.0, factor, 4)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)


# ---------------------------------------------------------------------------
# TelemetryCollector
# ---------------------------------------------------------------------------

class TestTelemetryCollector:
    def _collector(self):
        clock = FakeClock(10.0)
        wall = FakeClock(1_000.0)
        tracer = Tracer(now=clock)
        metrics = MetricsRegistry()
        collector = TelemetryCollector("alice", tracer, metrics,
                                       now=clock, wall=wall)
        return collector, tracer, metrics, clock, wall

    def test_trace_dump_shape(self):
        collector, tracer, _metrics, clock, wall = self._collector()
        tracer.emit("evt", detail=1)
        clock.advance(2.0)
        wall.advance(2.0)
        dump = collector.trace_dump(peer_offsets={"bob": 0.25})
        assert dump["node"] == "alice"
        assert dump["now"] == 12.0 and dump["wall"] == 1_002.0
        assert dump["started"] == 10.0
        assert dump["events"] == [{"t": 10.0, "event": "evt", "detail": 1}]
        assert dump["emitted"] == 1 and dump["dropped"] == 0
        assert dump["peer_offsets"] == {"bob": 0.25}

    def test_metrics_delta_cursors(self):
        collector, _tracer, metrics, _clock, _wall = self._collector()
        metrics.inc("sent", 3)
        metrics.observe("lat", 0.5)
        first = collector.metrics_delta()
        assert first["seq"] == 1
        assert first["counters"] == {"sent": 3}
        assert first["histograms"]["lat"] == {"count": 1, "sum": 0.5}
        # Nothing changed: the next delta is empty, not a repeat.
        second = collector.metrics_delta()
        assert second["seq"] == 2
        assert second["counters"] == {} and second["histograms"] == {}
        metrics.inc("sent")
        third = collector.metrics_delta()
        assert third["counters"] == {"sent": 1}

    def test_health_carries_extras(self):
        collector, tracer, _metrics, clock, _wall = self._collector()
        tracer.emit("evt")
        clock.advance(5.0)
        health = collector.health(peers=2, tracing=True)
        assert health["status"] == "ok"
        assert health["uptime"] == 5.0
        assert health["trace_events"] == 1
        assert health["peers"] == 2 and health["tracing"] is True


# ---------------------------------------------------------------------------
# Skew estimation and the merge
# ---------------------------------------------------------------------------

class TestMerge:
    def test_estimate_offset_recovers_known_skew(self):
        # Responder's clock reads 5 s ahead; symmetric 0.2 s paths.
        offset = estimate_offset(t_sent=10.0, t_echo=10.0, t_received=15.2,
                                 t_ack_sent=15.3, t_ack_received=10.5)
        assert offset == pytest.approx(5.0)
        # Reverse direction: responder behind.
        offset = estimate_offset(t_sent=15.0, t_echo=15.0, t_received=10.2,
                                 t_ack_sent=10.3, t_ack_received=15.5)
        assert offset == pytest.approx(-5.0)

    def _dump(self, node, events, peer_offsets=None, now=0.0, wall=0.0):
        return {"node": node, "now": now, "wall": wall, "started": 0.0,
                "events": events, "emitted": len(events), "dropped": 0,
                "capacity": 8192, "peer_offsets": peer_offsets or {}}

    def test_merge_corrects_skew_via_offset_chain(self):
        # bob's clock reads 5 s ahead of alice's; carol 2 s ahead of
        # bob's (alice never talked to carol — BFS must chain).
        dumps = [
            self._dump("alice", [{"t": 1.0, "event": "a.send"}],
                       peer_offsets={"bob": 5.0}),
            self._dump("bob", [{"t": 6.2, "event": "b.relay"}],
                       peer_offsets={"carol": 2.0}),
            self._dump("carol", [{"t": 8.4, "event": "c.recv"}]),
        ]
        merged = merge_dumps(dumps, reference="alice")
        assert merged["offsets"] == {"alice": 0.0, "bob": -5.0, "carol": -7.0}
        names = [event["event"] for event in merged["events"]]
        assert names == ["a.send", "b.relay", "c.recv"]
        times = [event["t"] for event in merged["events"]]
        assert times == pytest.approx([1.0, 1.2, 1.4])

    def test_merge_falls_back_to_wall_clock(self):
        # No handshake offsets at all: align on each dump's wall/local
        # clock pair.  dave's local clock started 5 s after alice's.
        dumps = [
            self._dump("alice", [{"t": 7.0, "event": "a"}],
                       now=7.0, wall=100.0),
            self._dump("dave", [{"t": 2.0, "event": "d"}],
                       now=2.0, wall=100.0),
        ]
        merged = merge_dumps(dumps, reference="alice")
        assert merged["offsets"]["dave"] == pytest.approx(5.0)
        dave = [e for e in merged["events"] if e["node"] == "dave"][0]
        assert dave["t"] == pytest.approx(7.0)

    def test_merge_clamps_child_before_parent(self):
        # Residual estimation error: the child's corrected start lands
        # 50 ms before its parent's.  The clamp floors it.
        dumps = [
            self._dump("alice", [
                {"t": 2.0, "event": "parent", "duration": 1.0,
                 "trace": "T", "span": "P", "parent": ""},
            ]),
            self._dump("bob", [
                {"t": 1.2, "event": "child", "duration": 0.25,
                 "trace": "T", "span": "C", "parent": "P"},
            ]),
        ]
        merged = merge_dumps(dumps, reference="alice")
        assert merged["clamped"] == 1
        child = [e for e in merged["events"] if e["event"] == "child"][0]
        parent = [e for e in merged["events"] if e["event"] == "parent"][0]
        assert child["start"] == parent["start"] == 1.0

    def test_merge_prefers_explicit_start(self):
        # An emitter-recorded start wins over t − duration (clock reads
        # inside emit() drift by microseconds; see multihop._mark_stages).
        dumps = [self._dump("alice", [
            {"t": 2.000004, "event": "stage", "duration": 1.0, "start": 1.0},
        ])]
        [event] = merge_dumps(dumps)["events"]
        assert event["start"] == 1.0

    def test_merge_empty_and_dropped_accounting(self):
        assert merge_dumps([]) == {
            "reference": None, "offsets": {}, "nodes": [],
            "clamped": 0, "dropped": 0, "events": [],
        }
        dump = self._dump("alice", [])
        dump["dropped"] = 7
        assert merge_dumps([dump])["dropped"] == 7


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

class TestChromeTrace:
    def test_duration_and_instant_events(self):
        payload = chrome_trace([
            {"t": 2.0, "event": "multihop.stage.lock", "duration": 0.5,
             "start": 1.5, "node": "alice", "trace": "T", "span": "S",
             "parent": "P", "payment": "pay-1"},
            {"t": 3.0, "event": "note", "node": "bob"},
        ])
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        # One process-name metadata row per node, in first-seen order.
        meta = [e for e in events if e["ph"] == "M"]
        assert [(e["pid"], e["args"]["name"]) for e in meta] == [
            (1, "alice"), (2, "bob")]
        span = [e for e in events if e["ph"] == "X"][0]
        assert span["name"] == "multihop.stage.lock"
        assert span["cat"] == "multihop"
        assert span["ts"] == pytest.approx(1.5e6)
        assert span["dur"] == pytest.approx(0.5e6)
        # Non-meta fields land in args; the causal triple is kept.
        assert span["args"] == {"payment": "pay-1", "trace": "T",
                                "span": "S", "parent": "P"}
        instant = [e for e in events if e["ph"] == "i"][0]
        assert instant["s"] == "t" and instant["ts"] == pytest.approx(3.0e6)

    def test_output_matches_checked_in_schema(self):
        schema = load_json(str(SCHEMA_PATH))
        payload = chrome_trace([
            {"t": 1.0, "event": "a.b", "duration": 0.5, "node": "alice"},
            {"t": 2.0, "event": "c", "node": "bob"},
        ])
        assert validate_perfetto(payload, schema) == []


# ---------------------------------------------------------------------------
# Schema validation + merge CLI
# ---------------------------------------------------------------------------

class TestValidatePerfetto:
    def test_reports_type_required_and_enum_violations(self):
        schema = load_json(str(SCHEMA_PATH))
        assert any("traceEvents" in error
                   for error in validate_perfetto({}, schema))
        errors = validate_perfetto(
            {"traceEvents": [{"name": 1, "ph": "Q", "pid": 1, "tid": 0}],
             "displayTimeUnit": "ms"},
            schema)
        assert any("expected string" in error for error in errors)
        assert any("'Q' not in" in error for error in errors)
        assert validate_perfetto(
            {"traceEvents": "nope", "displayTimeUnit": "ms"}, schema)

    def test_nested_paths_name_the_offender(self):
        errors = validate_perfetto(
            {"traceEvents": [{}], "displayTimeUnit": "ms"},
            load_json(str(SCHEMA_PATH)))
        assert any(error.startswith("$.traceEvents[0]:") for error in errors)


class TestMergeCli:
    def _write_dumps(self, tmp_path):
        dumps = [
            {"node": "alice", "now": 5.0, "wall": 50.0,
             "events": [{"t": 1.0, "event": "a.send", "duration": 0.5}],
             "peer_offsets": {"bob": 2.0}},
            {"node": "bob", "now": 7.0, "wall": 50.0,
             "events": [{"t": 3.4, "event": "b.recv"}],
             "peer_offsets": {}},
        ]
        paths = []
        for dump in dumps:
            path = tmp_path / f"{dump['node']}.json"
            path.write_text(json.dumps(dump))
            paths.append(str(path))
        return paths

    def test_merge_writes_timeline_and_perfetto(self, tmp_path, capsys):
        merged_path = tmp_path / "merged.json"
        trace_path = tmp_path / "trace.json"
        code = merge_main(self._write_dumps(tmp_path)
                          + ["-o", str(merged_path),
                             "--perfetto", str(trace_path),
                             "--reference", "alice"])
        assert code == 0
        assert "merged 2 events from 2 nodes" in capsys.readouterr().out
        merged = json.loads(merged_path.read_text())
        assert merged["nodes"] == ["alice", "bob"]
        assert [e["event"] for e in merged["events"]] == ["a.send", "b.recv"]
        perfetto = json.loads(trace_path.read_text())
        assert validate_perfetto(perfetto, load_json(str(SCHEMA_PATH))) == []

    def test_validate_mode_gates_on_schema(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(
            chrome_trace([{"t": 1.0, "event": "x", "duration": 0.5}])))
        assert merge_main(["--validate-perfetto", str(good),
                           "--schema", str(SCHEMA_PATH)]) == 0
        assert "valid" in capsys.readouterr().out
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"displayTimeUnit": "ms"}))
        assert merge_main(["--validate-perfetto", str(bad),
                           "--schema", str(SCHEMA_PATH)]) == 1
        captured = capsys.readouterr()
        assert "INVALID" in captured.out
        assert "schema violation" in captured.err


# ---------------------------------------------------------------------------
# Sidecar round-trip through the benchmark harness
# ---------------------------------------------------------------------------

class TestSidecarRoundTrip:
    def test_report_writes_trace_bearing_sidecar(self, tmp_path, monkeypatch,
                                                 capsys):
        # Load benchmarks/conftest.py the way pytest would, then point its
        # BENCH_DIR at a temp dir so the round-trip never dirties the repo.
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py")
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        monkeypatch.setattr(bench_conftest, "BENCH_DIR", str(tmp_path))

        registry = MetricsRegistry()
        tracer = Tracer()
        with tracer.root_span("multihop.pay", payment="p-1"):
            registry.observe("multihop.stage_seconds[lock]", 0.002)
        rows = [ExperimentResult("fig4", "3 hops", "latency",
                                 measured=1.2, paper=1.0, unit="ms")]
        bench_conftest.report("unit test", rows, sidecar="unit_trace",
                              metrics=registry, tracer=tracer)
        out = capsys.readouterr().out
        assert "unit test" in out and "metrics sidecar:" in out

        payload = load_json(str(tmp_path / "BENCH_unit_trace.json"))
        assert payload["benchmark"] == "unit_trace"
        assert payload["results"][0]["configuration"] == "3 hops"
        histograms = payload["metrics"]["histograms"]
        assert "multihop.stage_seconds[lock]" in histograms
        [event] = payload["trace"]["events"]
        assert event["event"] == "multihop.pay"
        assert event["trace"] and event["parent"] == ""


# ---------------------------------------------------------------------------
# DES-mode acceptance: one multihop payment, six stage spans per hop
# ---------------------------------------------------------------------------

class TestDesMultihopTrace:
    def test_six_stage_spans_per_hop_under_one_trace(self, three_hop_path):
        network, alice, bob, carol, ab, bc = three_hop_path
        with obs.collecting() as (_registry, tracer):
            alice.pay_multihop([alice, bob, carol], 1_000)
        events = tracer.events()
        stage_events = [event for event in events
                        if event["event"].startswith("multihop.stage.")]
        by_position = {}
        for event in stage_events:
            by_position.setdefault(event["position"], []).append(
                event["event"].rsplit(".", 1)[1])
        assert len(by_position) == 3  # one participant per path position
        for position, stages in sorted(by_position.items()):
            assert stages == STAGES, f"hop {position}: {stages}"
        # One trace spans every hop, rooted at the paying node's op span.
        trace_ids = {event.get("trace") for event in stage_events}
        assert len(trace_ids) == 1 and None not in trace_ids
        roots = [event for event in events
                 if event["event"] == "multihop.pay"
                 and event.get("trace") in trace_ids]
        assert roots and roots[0]["parent"] == ""
        # Stage events carry the explicit start the merge tool prefers.
        for event in stage_events:
            assert "start" in event and event["start"] <= event["t"]
        # The whole timeline renders as schema-valid Perfetto JSON.
        payload = chrome_trace(events)
        assert validate_perfetto(payload,
                                 load_json(str(SCHEMA_PATH))) == []
