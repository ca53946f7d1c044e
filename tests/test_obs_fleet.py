"""Fleet audit plane: auditor invariants and the telemetry collector.

Two suites, none touching sockets:

* :class:`TestInvariantAuditor` drives :class:`repro.obs.audit.
  InvariantAuditor` with synthetic ``audit-snapshot`` dicts — the same
  shapes the daemon emits — and checks the alert lifecycle: severity,
  persistence thresholds, clears, last-good caching.
* :class:`TestTelemetryCollector` pins the ``metrics_delta`` cursor
  contract under overlapping pollers and the ``health`` field contract.
"""

from repro.obs import MetricsRegistry, Tracer
from repro.obs.audit import CRITICAL, WARN, InvariantAuditor
from repro.obs.collector import TelemetryCollector

# ---------------------------------------------------------------------------
# Synthetic audit-snapshot builders
# ---------------------------------------------------------------------------


def chan(mine, theirs, terminated=False):
    return {
        "is_open": not terminated, "terminated": terminated,
        "my_balance": mine, "remote_balance": theirs,
        "total": mine + theirs, "locked_amount": 0,
    }


def snap(onchain=0, free=0, channels=None, hub=None, outbox=0,
         transport=None):
    return {
        "seq": 1, "onchain": onchain, "free_deposit_value": free,
        "channels": dict(channels or {}),
        "payments_sent": 0, "payments_received": 0,
        "outbox_pending": outbox,
        "transport": dict(transport or {}),
        **({"hub": hub} if hub is not None else {}),
    }


def hub_block(liabilities=0, backing=0, conserved=True, solvent=True,
              payout_pending=0):
    return {
        "accounts": 1, "total_balance": liabilities,
        "liabilities": liabilities, "backing": backing,
        "deposited_total": liabilities, "withdrawn_total": 0,
        "withdrawn_onchain": 0, "payout_pending": payout_pending,
        "conserved": conserved, "solvent": solvent,
    }


def codes(alerts):
    return {alert.code for alert in alerts}


class TestInvariantAuditor:
    def test_quiescent_fleet_raises_nothing(self):
        auditor = InvariantAuditor()
        cid = "alice:bob:1"
        sweep = {
            "alice": snap(onchain=60, channels={cid: chan(25, 15)}),
            "bob": snap(onchain=60, channels={cid: chan(15, 25)}),
        }
        for t in (1.0, 2.0, 3.0):
            assert auditor.audit(sweep, t) == []
        # First sweep's observed total became the baseline.
        assert auditor.expected_total == 160
        assert auditor.last_components == {
            "onchain": 120, "free_deposits": 0, "channels": 40}

    def test_payment_inside_a_channel_conserves(self):
        auditor = InvariantAuditor()
        cid = "a:b:1"
        auditor.audit({"a": snap(channels={cid: chan(30, 10)}),
                       "b": snap(channels={cid: chan(10, 30)})}, 1.0)
        # A payment moved 7 within the channel: totals unchanged.
        alerts = auditor.audit(
            {"a": snap(channels={cid: chan(23, 17)}),
             "b": snap(channels={cid: chan(17, 23)})}, 2.0)
        assert alerts == []

    def test_surplus_is_critical_immediately_and_stays_on_record(self):
        auditor = InvariantAuditor(expected_total=100)
        alerts = auditor.audit({"a": snap(onchain=130)}, 1.0)
        assert codes(alerts) == {"CONSERVATION_SURPLUS"}
        assert alerts[0].severity == CRITICAL
        # Healing clears the alert but the CRITICAL stays on record.
        assert auditor.audit({"a": snap(onchain=100)}, 2.0) == []
        assert len(auditor.critical_alerts()) == 1
        assert auditor.critical_alerts()[0].cleared_at == 2.0

    def test_deficit_warns_only_after_persisting(self):
        auditor = InvariantAuditor(expected_total=100, deficit_sweeps=3)
        deficit = {"a": snap(onchain=90)}
        assert auditor.audit(deficit, 1.0) == []
        assert auditor.audit(deficit, 2.0) == []
        alerts = auditor.audit(deficit, 3.0)
        assert codes(alerts) == {"CONSERVATION_DEFICIT"}
        assert alerts[0].severity == WARN
        assert auditor.audit({"a": snap(onchain=100)}, 4.0) == []
        assert auditor.critical_alerts() == []
        assert auditor.log[0].cleared_at == 4.0
        # A fresh transient must re-accumulate the full streak.
        assert auditor.audit(deficit, 5.0) == []

    def test_min_endpoint_rule_retires_settling_channel(self):
        auditor = InvariantAuditor(expected_total=100)
        cid = "a:b:1"
        live = {"a": snap(onchain=30, channels={cid: chan(25, 15)}),
                "b": snap(onchain=30, channels={cid: chan(15, 25)})}
        assert auditor.audit(live, 1.0) == []
        # a settled: its side zeroed synchronously, b still stale, the
        # settlement is in the mempool.  min() must retire the channel
        # without the stale side minting a surplus.
        settling = {"a": snap(onchain=30,
                              channels={cid: chan(0, 0, terminated=True)}),
                    "b": snap(onchain=30, channels={cid: chan(15, 25)})}
        assert codes(auditor.audit(settling, 2.0)) <= set()
        # Mined: settled funds land on-chain, conservation exact again.
        settled = {"a": snap(onchain=55,
                             channels={cid: chan(0, 0, terminated=True)}),
                   "b": snap(onchain=45,
                             channels={cid: chan(0, 0, terminated=True)})}
        assert auditor.audit(settled, 3.0) == []
        assert auditor.critical_alerts() == []

    def test_mirror_divergence_warns_when_persistent(self):
        auditor = InvariantAuditor(expected_total=40, deficit_sweeps=2)
        cid = "a:b:1"
        diverged = {"a": snap(channels={cid: chan(25, 15)}),
                    "b": snap(channels={cid: chan(15, 21)})}
        first = auditor.audit(diverged, 1.0)
        assert "CHANNEL_MIRROR_DIVERGED" not in codes(first)
        second = auditor.audit(diverged, 2.0)
        assert "CHANNEL_MIRROR_DIVERGED" in codes(second)
        alert = next(a for a in second
                     if a.code == "CHANNEL_MIRROR_DIVERGED")
        assert alert.subject == cid

    def test_hub_flags_are_critical(self):
        auditor = InvariantAuditor(expected_total=0)
        alerts = auditor.audit({
            "hub": snap(hub=hub_block(liabilities=50, backing=40,
                                      conserved=False, solvent=False)),
        }, 1.0)
        assert {"HUB_NOT_CONSERVED", "HUB_INSOLVENT"} <= codes(alerts)
        assert all(a.severity == CRITICAL for a in alerts)

    def test_negative_balance_is_critical(self):
        auditor = InvariantAuditor(expected_total=0)
        alerts = auditor.audit(
            {"a": snap(channels={"a:b:1": chan(-5, 5)})}, 1.0)
        assert "NEGATIVE_BALANCE" in codes(alerts)

    def test_outbox_and_payout_stuck_need_consecutive_sweeps(self):
        auditor = InvariantAuditor(expected_total=0, stuck_sweeps=2)
        stuck = {"hub": snap(outbox=3,
                             hub=hub_block(payout_pending=10))}
        assert auditor.audit(stuck, 1.0) == []
        assert codes(auditor.audit(stuck, 2.0)) == {"OUTBOX_STUCK",
                                                    "PAYOUT_STUCK"}
        clean = {"hub": snap(hub=hub_block())}
        assert auditor.audit(clean, 3.0) == []

    def test_scrape_failure_keeps_last_good_snapshot_in_the_sum(self):
        auditor = InvariantAuditor(deficit_sweeps=1)
        cid = "a:b:1"
        live = {"a": snap(onchain=30, channels={cid: chan(25, 15)}),
                "b": snap(onchain=30, channels={cid: chan(15, 25)})}
        assert auditor.audit(live, 1.0) == []
        # b stops answering: WARN, but its wallet and channel must not
        # vanish from the observed sum and fake a deficit.
        down = {"a": live["a"], "b": None}
        alerts = auditor.audit(down, 2.0)
        assert codes(alerts) == {"SCRAPE_FAILED"}
        assert auditor.last_observed == 100
        assert auditor.audit(live, 3.0) == []
        assert auditor.log[0].cleared_at == 3.0

    def test_transport_deltas_baseline_then_fire_then_clear(self):
        auditor = InvariantAuditor(expected_total=0)

        def at(reconnects, waits):
            return {"a": snap(transport={
                "peers": 2, "disconnected": 0,
                "reconnects": reconnects, "backpressure_waits": waits,
                "drops_protocol": 0, "drops_control": 0, "queued": 0,
            })}

        # First observation is the baseline — prior history never alerts.
        assert auditor.audit(at(5, 7), 1.0) == []
        alerts = auditor.audit(at(7, 9), 2.0)
        assert codes(alerts) == {"RECONNECT", "BACKPRESSURE"}
        assert all(a.severity == WARN for a in alerts)
        # Counters flat again: both clear on the next sweep.
        assert auditor.audit(at(7, 9), 3.0) == []
        assert all(a.cleared_at == 3.0 for a in auditor.log)

    def test_peer_disconnected_only_from_live_snapshots(self):
        auditor = InvariantAuditor(expected_total=0)
        down_link = {"a": snap(transport={"peers": 1, "disconnected": 1})}
        assert codes(auditor.audit(down_link, 1.0)) == {"PEER_DISCONNECTED"}
        # Once the scrape itself fails, the cached snapshot's stale
        # transport state must not keep the link alert alive.
        alerts = auditor.audit({"a": None}, 2.0)
        assert codes(alerts) == {"SCRAPE_FAILED"}

    def test_alert_metrics_counters(self):
        registry = MetricsRegistry()
        auditor = InvariantAuditor(expected_total=100, metrics=registry)
        auditor.audit({"a": snap(onchain=130)}, 1.0)
        auditor.audit({"a": snap(onchain=100)}, 2.0)
        counters = registry.snapshot()["counters"]
        assert counters["alerts.raised[CONSERVATION_SURPLUS]"] == 1
        assert counters["alerts.critical"] == 1
        assert counters["alerts.cleared"] == 1

    def test_summary_is_json_shaped(self):
        auditor = InvariantAuditor(expected_total=100)
        auditor.audit({"a": snap(onchain=130)}, 1.0)
        summary = auditor.summary()
        assert summary["observed_total"] == 130
        assert summary["expected_total"] == 100
        assert summary["criticals"][0]["code"] == "CONSERVATION_SURPLUS"
        assert summary["log"] == summary["criticals"]


# ---------------------------------------------------------------------------
# TelemetryCollector: delta cursor + health contract
# ---------------------------------------------------------------------------


class TestTelemetryCollector:
    def _collector(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        clock = {"t": 100.0}
        collector = TelemetryCollector(
            "alice", tracer, registry,
            now=lambda: clock["t"], wall=lambda: 1_000.0)
        return collector, registry, tracer, clock

    def test_overlapping_pollers_share_one_cursor_without_loss(self):
        collector, registry, _, _ = self._collector()
        # Two pollers interleave against the single-cursor stream; the
        # contract is that *across all calls* every increment is
        # reported exactly once — no double counting, nothing lost.
        seen = {"pays": 0.0, "drops": 0.0}
        seqs = []
        for round_number in range(1, 6):
            registry.inc("pays", round_number)
            for _poller in ("fleet", "script"):
                delta = collector.metrics_delta()
                seqs.append(delta["seq"])
                for name, value in delta["counters"].items():
                    seen[name] += value
                registry.inc("drops")  # lands mid-overlap
        final = collector.metrics_delta()
        for name, value in final["counters"].items():
            seen[name] += value
        totals = registry.snapshot()["counters"]
        assert seen == {"pays": totals["pays"], "drops": totals["drops"]}
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)

    def test_delta_omits_unchanged_and_reports_gauges_absolute(self):
        collector, registry, _, _ = self._collector()
        registry.inc("pays", 4)
        registry.set_gauge("height", 9)
        first = collector.metrics_delta()
        assert first["counters"] == {"pays": 4}
        assert first["gauges"]["height"]["value"] == 9
        registry.set_gauge("height", 12)
        second = collector.metrics_delta()
        assert second["counters"] == {}  # unchanged counters drop out
        assert second["gauges"]["height"]["value"] == 12

    def test_histogram_deltas_carry_count_and_sum_since_last_call(self):
        collector, registry, _, _ = self._collector()
        registry.observe("latency", 0.5)
        registry.observe("latency", 1.5)
        first = collector.metrics_delta()
        assert first["histograms"]["latency"] == {"count": 2, "sum": 2.0}
        registry.observe("latency", 0.25)
        second = collector.metrics_delta()
        assert second["histograms"]["latency"] == {"count": 1, "sum": 0.25}
        assert "latency" not in collector.metrics_delta()["histograms"]

    def test_health_field_contract(self):
        collector, _, tracer, clock = self._collector()
        tracer.emit("pay.start")
        clock["t"] = 107.5
        health = collector.health(peers=3, channels=2,
                                  chain_height=11, tracing=True)
        # The stable core every poller may rely on...
        assert health["node"] == "alice"
        assert health["status"] == "ok"
        assert health["uptime"] == 7.5
        assert health["trace_events"] == 1
        assert health["trace_emitted"] == 1
        assert health["trace_dropped"] == 0
        # ...plus whatever the daemon layered on top, verbatim.
        assert health["peers"] == 3
        assert health["channels"] == 2
        assert health["chain_height"] == 11
        assert health["tracing"] is True
