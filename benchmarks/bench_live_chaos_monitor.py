"""Chaos under observation: load + link faults + the fleet audit plane.

A live hub-and-spoke fleet (1 hub, 3 spokes) runs the bidirectional
closed loop of ``tests/test_runtime_load_live.py`` while two other
things happen *at the same time*: a
:class:`~repro.faults.live.LiveFaultInjector` severs transport links on
a schedule (each sever is a real TCP cut; the dial loop redials with
backoff), and a :class:`~repro.obs.fleet.FleetMonitorThread` sweeps
every daemon's ``audit-snapshot`` on a 200 ms interval, feeding the
:class:`~repro.obs.audit.InvariantAuditor`.

What the run must prove (DESIGN.md §14):

* **No CRITICAL, ever.**  Conservation and hub solvency hold on every
  sweep — through the faults, through settlement.
  A CRITICAL that later "heals" still fails the run.
* **Transient WARNs fire and clear.**  Each sever is observable — the
  severing daemon's ``reconnects`` counter bumps, so the auditor raises
  a ``RECONNECT`` WARN on the next sweep — and once the links are quiet
  again every transient WARN is cleared.  Chaos leaves a trace in the
  log, not a permanently lit dashboard.

The ``live_chaos_monitor`` sidecar carries the per-daemon rate series
and the full alert log (``extra["fleet"]``), and the alert log is also
written standalone as ``BENCH_live_chaos_monitor_alerts.json`` for the
CI artifact.
"""

import json
import os
import threading
import time

import pytest

from repro.faults.live import LiveFaultInjector
from repro.faults.schedule import FaultSchedule
from repro.obs import MetricsRegistry, nearest_rank
from repro.obs.fleet import FleetMonitorThread
from repro.runtime.launch import HOST, launch_network

from conftest import BENCH_DIR, report
from repro.bench.harness import ExperimentResult
from tests.test_runtime_load_live import (
    GENESIS,
    SPOKES,
    await_convergence,
    drive_channels,
    fund_spokes,
    transport_drops,
)

SECONDS = 2.0            # closed-loop window; covers every fault below
SWEEP_INTERVAL = 0.2

# Severs spread across the load window, on both hub- and spoke-side
# links; the heal marks the end of the fault window (a severed link has
# already redialled itself by then — restore is how a blackhole would
# lift, and exercises the verb either way).
CHAOS = (FaultSchedule(seed=9)
         .sever("hub", "spoke0", at=0.2)
         .sever("spoke1", "hub", at=0.5)
         .sever("hub", "spoke1", at=0.8)
         .sever("spoke0", "hub", at=1.1)
         .heal("hub", "spoke0", at=1.3))


@pytest.mark.live
def test_live_chaos_monitor():
    names = ["hub"] + [f"spoke{i}" for i in range(SPOKES)]
    handles, _ = launch_network({name: GENESIS for name in names})
    hub = handles["hub"].control
    monitored = None
    try:
        channels = fund_spokes(handles)

        # Monitor attaches once the fleet is funded and quiescent, with
        # the funded supply as the conservation baseline, and stays up
        # through load, faults, convergence and settlement.
        registry = MetricsRegistry()
        monitored = FleetMonitorThread(
            {name: (HOST, handles[name].control_port) for name in names},
            interval=SWEEP_INTERVAL, expected_total=len(names) * GENESIS,
            metrics=registry).start()

        injector = LiveFaultInjector(handles, CHAOS)
        chaos_thread = threading.Thread(
            target=injector.apply, name="chaos", daemon=True)

        chaos_thread.start()
        paid, net, latencies = drive_channels(handles, channels, SECONDS)
        chaos_thread.join(timeout=30)
        assert not chaos_thread.is_alive()
        drops = transport_drops(handles)
        await_convergence(handles, channels, net)

        for cid in channels.values():
            hub.call("settle", channel_id=cid)
        balances = {name: handles[name].control.call("balance")["onchain"]
                    for name in names}

        # A few quiet sweeps so every transient WARN has had a chance to
        # clear before the final sweep freezes the log.
        time.sleep(4 * SWEEP_INTERVAL)
        monitored.stop()
        monitor = monitored.monitor
        monitored = None
    finally:
        if monitored is not None:
            monitored.stop()
        for handle in handles.values():
            handle.shutdown()

    auditor = monitor.auditor
    summary = auditor.summary()

    results = [
        ExperimentResult("live chaos+monitor", f"{SPOKES} spokes, "
                         f"{len(CHAOS.faults)} faults", "throughput",
                         sum(paid.values()) / SECONDS, None, "tx/s"),
        *(ExperimentResult("live chaos+monitor", "pay latency", f"p{q:g}",
                           1e3 * nearest_rank(latencies, q / 100), None,
                           "ms") for q in (50, 95)),
        ExperimentResult("live chaos+monitor", "audit plane", "sweeps",
                         monitor.sweeps, None, "sweeps"),
        ExperimentResult("live chaos+monitor", "audit plane",
                         "alerts raised", len(auditor.log), None, "alerts"),
        ExperimentResult("live chaos+monitor", "audit plane",
                         "criticals", len(auditor.critical_alerts()),
                         0, "alerts"),
    ]
    report(
        f"Live chaos under the fleet monitor (1 hub, {SPOKES} spokes, "
        "severs mid-load)",
        results,
        sidecar="live_chaos_monitor",
        metrics=registry,
        extra={
            "load": {"seconds": SECONDS, "completed": sum(paid.values()),
                     "lanes": {f"{name}:{side}": count
                               for (name, side), count in paid.items()}},
            "transport_drops": drops,
            "balances": balances,
            "faults": [list(entry) for entry in injector.injected],
            "fleet": monitor.to_sidecar(),
        },
    )
    alerts_path = os.path.join(BENCH_DIR,
                               "BENCH_live_chaos_monitor_alerts.json")
    with open(alerts_path, "w", encoding="utf-8") as stream:
        json.dump(summary, stream, indent=2, sort_keys=True)
    print(f"alert log: {alerts_path}")

    # Fund safety held on every sweep, faults and all.
    assert auditor.critical_alerts() == []
    assert summary["observed_total"] == summary["expected_total"] \
        == len(names) * GENESIS

    # The chaos was observed: every sever shows up as a RECONNECT WARN...
    raised = {alert.code for alert in auditor.log}
    assert "RECONNECT" in raised
    reconnects = sum(
        point[-1].get("reconnects", 0)
        for point in (monitor.series(name) for name in names) if point)
    assert reconnects >= sum(
        1 for kind, _, _ in injector.injected if kind == "sever")

    # ...and every transient WARN cleared once the links went quiet.
    assert auditor.active_alerts() == []
    for alert in auditor.log:
        assert alert.cleared_at is not None, alert.to_dict()

    # Flow control, not luck: severs stall frames, they never drop them.
    assert drops["protocol"] == 0

    # Exact conservation after settling every channel.
    assert balances["hub"] == GENESIS - sum(net.values())
    for name in names[1:]:
        assert balances[name] == GENESIS + net[name]
    assert sum(balances.values()) == len(names) * GENESIS
