"""Chaos under observation: load + link faults + the fleet audit plane.

A live hub-and-spoke fleet (1 hub, 4 spokes) runs its full
bidirectional closed loop while two other things happen *at the same
time*: a :class:`~repro.faults.live.LiveFaultInjector` severs transport
links on a schedule (each sever is a real TCP cut; the dial loop redials
with backoff), and a :class:`~repro.obs.fleet.FleetMonitorThread` sweeps
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

import asyncio
import json
import os
import threading
import time

import pytest

from repro.faults.live import LiveFaultInjector
from repro.faults.schedule import FaultSchedule
from repro.load import LoadTarget, run_closed_loop, transport_drops
from repro.obs import MetricsRegistry
from repro.obs.fleet import FleetMonitorThread
from repro.runtime.launch import HOST, launch_network

from conftest import BENCH_DIR, report
from repro.bench.harness import ExperimentResult

SPOKES = 3
GENESIS = 200_000
DEPOSIT = 40_000
PAYMENTS = 80            # per direction per channel
CONCURRENCY = 2          # users per stream
HUB_TO_SPOKE, SPOKE_TO_HUB = 2, 1   # asymmetric → on-chain settlement
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


def _poll(predicate, timeout=30.0, interval=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            pytest.fail(f"timed out waiting for {what}")
        time.sleep(interval)


@pytest.mark.live
def test_live_chaos_monitor():
    names = ["hub"] + [f"spoke{i}" for i in range(SPOKES)]
    handles, _ = launch_network({name: GENESIS for name in names})
    hub = handles["hub"].control
    spokes = {name: handles[name].control for name in names[1:]}
    monitored = None
    try:
        channels = {}
        for name, spoke in spokes.items():
            cid = hub.call("open-channel", peer=name)["channel_id"]
            channels[name] = cid
            deposit = hub.call("deposit", value=DEPOSIT)
            hub.call("approve-associate", peer=name, channel_id=cid,
                     txid=deposit["txid"])
            deposit = spoke.call("deposit", value=DEPOSIT)
            spoke.call("approve-associate", peer="hub", channel_id=cid,
                       txid=deposit["txid"])

        targets = []
        for name, cid in channels.items():
            targets.append(LoadTarget(
                HOST, handles["hub"].control_port, cid,
                amount=HUB_TO_SPOKE, label=f"hub->{name}"))
            targets.append(LoadTarget(
                HOST, handles[name].control_port, cid,
                amount=SPOKE_TO_HUB, label=f"{name}->hub"))

        # Monitor attaches once the fleet is funded and quiescent, with
        # the funded supply as the conservation baseline, and stays up
        # through load, faults, convergence and settlement.
        monitored = FleetMonitorThread(
            {name: (HOST, handles[name].control_port) for name in names},
            interval=SWEEP_INTERVAL,
            expected_total=len(names) * GENESIS).start()

        injector = LiveFaultInjector(handles, CHAOS)
        chaos_thread = threading.Thread(
            target=injector.apply, name="chaos", daemon=True)

        registry = MetricsRegistry()
        chaos_thread.start()
        load = asyncio.run(run_closed_loop(
            targets, PAYMENTS, concurrency=CONCURRENCY, registry=registry))
        chaos_thread.join(timeout=30)
        assert not chaos_thread.is_alive()
        assert load.errors == 0
        assert load.completed == 2 * SPOKES * PAYMENTS

        drops = asyncio.run(transport_drops(
            [(HOST, handle.control_port) for handle in handles.values()]))

        net = PAYMENTS * (HUB_TO_SPOKE - SPOKE_TO_HUB)

        def converged(client, cid, mine, theirs):
            snapshot = client.call("channel", channel_id=cid)
            return (snapshot["my_balance"] == mine
                    and snapshot["remote_balance"] == theirs)

        for name, cid in channels.items():
            _poll(lambda: converged(hub, cid, DEPOSIT - net, DEPOSIT + net)
                  and converged(spokes[name], cid,
                                DEPOSIT + net, DEPOSIT - net),
                  what=f"channel {cid} to converge")

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
                         load.throughput_tx_s, None, "tx/s"),
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
            "load": load.to_dict(),
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
    assert balances["hub"] == GENESIS - SPOKES * net
    for name in names[1:]:
        assert balances[name] == GENESIS + net
    assert sum(balances.values()) == len(names) * GENESIS
