"""Fleet-wide telemetry: poll every daemon, keep time series, audit.

:class:`FleetMonitor` is the observer half of the audit plane (the
judge is :class:`~repro.obs.audit.InvariantAuditor`).  Each sweep it
polls every daemon over one :class:`~repro.runtime.control.AsyncControlClient`
per target — ``audit-snapshot`` (the atomic fund digest),
``metrics_stream`` (counter deltas since the previous sweep, so rates
come free), and ``health`` (uptime, peers, chain height, trace ring
pressure) — and appends a point to a per-daemon ring buffer with
derived rates: payments/s, drops/s, backpressure waits/s, reconnects.
``metrics_stream`` keeps one cursor per daemon, so one monitor per
fleet sees every delta; a second poller would split them.  A daemon
that stops answering keeps its last-known snapshot in the conservation
sum (so a crash reads as a WARN scrape failure, not a phantom CRITICAL
deficit) and gets a fresh connection attempt next sweep.

The monitor runs happily *concurrently with traffic and faults* — that
is the point: ``bench_live_chaos_monitor.py`` attaches one to a fleet
under closed-loop load while a
:class:`~repro.faults.live.LiveFaultInjector` severs and heals links.

Intended use::

    monitor = FleetMonitor({"alice": ("127.0.0.1", 7001), ...},
                           interval=0.25)
    await monitor.start()        # background sweeps
    ... drive load / faults ...
    await monitor.stop()
    assert not monitor.auditor.critical_alerts()
    sidecar["fleet"] = monitor.to_sidecar()
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.obs.audit import InvariantAuditor
from repro.obs.metrics import MetricsRegistry
from repro.runtime.control import AsyncControlClient, ControlError

__all__ = ["FleetMonitor", "FleetMonitorThread", "parse_targets"]

#: What each point keeps from a daemon's ``health`` answer.
HEALTH_FIELDS = ("status", "uptime", "peers", "chain_height",
                 "trace_events", "trace_dropped")


def parse_targets(specs: List[str]) -> Dict[str, Tuple[str, int]]:
    """Parse ``name=host:port`` (or bare ``host:port``) target specs."""
    targets: Dict[str, Tuple[str, int]] = {}
    for spec in specs:
        name, eq, address = spec.rpartition("=")
        host, _, port = address.rpartition(":")
        host = host or "127.0.0.1"
        if not eq:
            name = f"{host}:{port}"
        targets[name] = (host, int(port))
    return targets


class FleetMonitor:
    """Polls a fleet of daemons and feeds an :class:`InvariantAuditor`."""

    def __init__(
        self,
        targets: Dict[str, Tuple[str, int]],
        interval: float = 0.5,
        auditor: Optional[InvariantAuditor] = None,
        expected_total: Optional[int] = None,
        history: int = 512,
        metrics: Optional[MetricsRegistry] = None,
        timeout: float = 10.0,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.targets = dict(targets)
        self.interval = interval
        self.timeout = timeout
        self.auditor = auditor if auditor is not None else InvariantAuditor(
            expected_total=expected_total, metrics=metrics)
        self.metrics = metrics
        self._wall = wall
        self.sweeps = 0
        self._clients: Dict[str, AsyncControlClient] = {}
        self._series: Dict[str, Deque[Dict[str, Any]]] = {
            name: deque(maxlen=history) for name in self.targets
        }
        # Cumulative values from each daemon's previous good sweep, for
        # the derived rates.
        self._prev: Dict[str, Dict[str, Any]] = {}
        self._task: Optional[asyncio.Task] = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------

    async def _call(self, name: str, cmd: str) -> Dict[str, Any]:
        """One command over ``name``'s cached connection, dialled on first
        use and again once a failed call has closed it (daemons restart,
        routers respawn)."""
        client = self._clients.get(name)
        if client is None or client.closed:
            host, port = self.targets[name]
            client = await AsyncControlClient.connect(
                host, port, timeout=self.timeout)
            self._clients[name] = client
        return await client.call(cmd)

    async def _poll(self, name: str) -> Tuple[str, Optional[Dict[str, Any]],
                                              Optional[Dict[str, Any]],
                                              Optional[Dict[str, Any]]]:
        """One daemon's scrape; all three replies or none."""
        try:
            snapshot = await self._call(name, "audit-snapshot")
            delta = await self._call(name, "metrics_stream")
            health = await self._call(name, "health")
        except (ControlError, OSError):
            return name, None, None, None
        return name, snapshot, delta, health

    async def sweep(self) -> Dict[str, Any]:
        """Poll every daemon once, record points, run the auditor."""
        t = self._wall()
        results = await asyncio.gather(
            *(self._poll(name) for name in self.targets))
        snapshots: Dict[str, Optional[Dict[str, Any]]] = {}
        for name, snapshot, delta, health in results:
            snapshots[name] = snapshot
            self._record(name, t, snapshot, delta, health)
        alerts = self.auditor.audit(snapshots, t)
        self.sweeps += 1
        if self.metrics is not None:
            self.metrics.inc("fleet.sweeps")
            self.metrics.set_gauge("fleet.alerts_active", len(alerts))
            if self.auditor.last_observed is not None:
                self.metrics.set_gauge("fleet.observed_total",
                                       self.auditor.last_observed)
        return {
            "t": t,
            "observed_total": self.auditor.last_observed,
            "expected_total": self.auditor.expected_total,
            "alerts": [alert.to_dict() for alert in alerts],
            "daemons": self.latest(),
        }

    def _record(self, name: str, t: float,
                snapshot: Optional[Dict[str, Any]],
                delta: Optional[Dict[str, Any]],
                health: Optional[Dict[str, Any]]) -> None:
        point: Dict[str, Any] = {"t": t, "ok": snapshot is not None}
        if snapshot is not None:
            transport = snapshot.get("transport", {})
            prev = self._prev.get(name)
            elapsed = t - prev["t"] if prev else 0.0

            def rate(key: str, current: float) -> float:
                if not prev or elapsed <= 0:
                    return 0.0
                return max(0.0, (current - prev.get(key, current)) / elapsed)

            sent = snapshot.get("payments_sent", 0)
            received = snapshot.get("payments_received", 0)
            drops = (transport.get("drops_protocol", 0)
                     + transport.get("drops_control", 0))
            waits = transport.get("backpressure_waits", 0)
            point.update({
                "tx_s": round(rate("payments_sent", sent), 3),
                "rx_s": round(rate("payments_received", received), 3),
                "drops_s": round(rate("drops", drops), 3),
                "backpressure_s": round(rate("backpressure_waits",
                                             waits), 3),
                "reconnects": transport.get("reconnects", 0),
                "disconnected": transport.get("disconnected", 0),
                "queued": transport.get("queued", 0),
                "onchain": snapshot.get("onchain", 0),
                "channels": len(snapshot.get("channels", {})),
                "outbox_pending": snapshot.get("outbox_pending", 0),
            })
            hub = snapshot.get("hub")
            if hub is not None:
                point["hub_liabilities"] = hub.get("liabilities", 0)
                point["hub_payout_pending"] = hub.get("payout_pending", 0)
            self._prev[name] = {
                "t": t, "payments_sent": sent,
                "payments_received": received,
                "drops": drops, "backpressure_waits": waits,
            }
        if delta is not None and delta.get("counters"):
            # Raw counter deltas this sweep — the fine-grained series
            # the sidecar keeps for trend tooling.
            point["counters"] = delta["counters"]
        if health is not None:
            # A router's merged health carries only status: the fields
            # a single daemon adds read None there.
            point.update({key: health.get(key) for key in HEALTH_FIELDS})
        self._series[name].append(point)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Begin background sweeps on the running event loop."""
        if self._task is not None:
            return
        self._stopping = asyncio.Event()
        self._task = asyncio.ensure_future(self._run())

    async def _run(self) -> None:
        while not self._stopping.is_set():
            await self.sweep()
            try:
                await asyncio.wait_for(self._stopping.wait(),
                                       self.interval)
            except asyncio.TimeoutError:
                pass

    async def stop(self, final_sweep: bool = True) -> None:
        """Stop background sweeps; by default take one last sweep so
        the log reflects the fleet's settled end state."""
        if self._task is not None:
            self._stopping.set()
            await self._task
            self._task = None
        if final_sweep:
            await self.sweep()
        await self.close()

    async def close(self) -> None:
        clients, self._clients = dict(self._clients), {}
        for client in clients.values():
            await client.close()

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def series(self, name: str) -> List[Dict[str, Any]]:
        return list(self._series.get(name, ()))

    def latest(self) -> Dict[str, Dict[str, Any]]:
        return {name: buffer[-1]
                for name, buffer in self._series.items() if buffer}

    def to_sidecar(self) -> Dict[str, Any]:
        """The benchmark artifact: per-daemon rate series + audit log."""
        return {
            "interval": self.interval,
            "sweeps": self.sweeps,
            "targets": {name: f"{host}:{port}"
                        for name, (host, port) in self.targets.items()},
            "daemons": {name: self.series(name) for name in self.targets},
            "audit": self.auditor.summary(),
        }


class FleetMonitorThread:
    """A :class:`FleetMonitor` on its own thread and event loop.

    Drivers like the chaos benchmark make blocking
    :class:`~repro.runtime.control.ControlClient` calls from threads —
    there is no long-lived event loop to mount the monitor on.  This
    wrapper gives the monitor a dedicated loop so it sweeps continuously
    while the driver does whatever it wants on the main thread.

    After :meth:`stop` (one final sweep taken) the underlying monitor is
    available for assertions and the sidecar::

        monitored = FleetMonitorThread(targets, interval=0.25).start()
        ... drive load / faults ...
        monitored.stop()
        assert not monitored.monitor.auditor.critical_alerts()
    """

    def __init__(self, targets: Dict[str, Tuple[str, int]],
                 interval: float = 0.25,
                 expected_total: Optional[int] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._targets = dict(targets)
        self._interval = interval
        self._expected_total = expected_total
        self._metrics = metrics
        self.monitor: Optional[FleetMonitor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="fleet-monitor", daemon=True)

    def _run(self) -> None:
        asyncio.run(self._amain())

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.monitor = FleetMonitor(
            self._targets, interval=self._interval,
            expected_total=self._expected_total, metrics=self._metrics)
        await self.monitor.start()
        self._ready.set()
        await self._stop.wait()
        await self.monitor.stop()

    def start(self) -> "FleetMonitorThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("fleet monitor thread failed to start")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
