"""Per-daemon telemetry plane: span ring + metrics deltas, served live.

A :class:`TelemetryCollector` owns one node's :class:`Tracer` and
:class:`MetricsRegistry` and packages them for the control-plane
commands:

* :meth:`trace_dump` — the full retained span ring plus the clock
  metadata (local clock, wall clock, peer skew estimates) that
  :mod:`repro.obs.merge` needs to place this node's events on a shared
  timeline.
* :meth:`metrics_delta` — counters and histograms *since the previous
  call*, so a poller (``python -m repro.obs fleet``) sees rates without
  the daemon keeping per-client state: the collector keeps one cursor,
  which is enough for the single-operator control plane (two pollers at
  once would each see only part of the deltas).
* :meth:`health` — a cheap liveness summary (uptime, ring pressure,
  peer count) suitable for tight polling.

The collector never samples clocks itself: the daemon injects ``now``
(its scheduler clock — the same clock the tracer stamps events with) and
``wall`` (epoch seconds) so DES-mode tests can drive it with simulated
time.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["TelemetryCollector"]


class TelemetryCollector:
    """Buffers one node's span ring and metrics, serving dumps and deltas."""

    def __init__(
        self,
        node: str,
        tracer: Tracer,
        metrics: MetricsRegistry,
        now: Optional[Callable[[], float]] = None,
        wall: Callable[[], float] = time.time,
    ) -> None:
        self.node = node
        self.tracer = tracer
        self.metrics = metrics
        self._now = now if now is not None else tracer.now
        self._wall = wall
        self.started_local = self._now()
        self.started_wall = wall()
        self._stream_seq = 0
        self._last_counters: Dict[str, float] = {}
        self._last_histograms: Dict[str, Dict[str, float]] = {}

    # -- trace dump --------------------------------------------------------

    def trace_dump(
        self, peer_offsets: Optional[Dict[str, float]] = None,
    ) -> Dict[str, Any]:
        """The retained span ring plus merge metadata.

        ``peer_offsets`` maps peer name → estimated ``peer_clock −
        my_clock`` (from the handshake NTP exchange); the merge tool
        chains these estimates to skew-correct every node onto one
        reference clock.
        """
        return {
            "node": self.node,
            "now": self._now(),
            "wall": self._wall(),
            "started": self.started_local,
            "events": self.tracer.events(),
            "emitted": self.tracer.emitted,
            "dropped": self.tracer.dropped,
            "capacity": self.tracer.capacity,
            "peer_offsets": dict(peer_offsets or {}),
        }

    # -- metrics stream ----------------------------------------------------

    def metrics_delta(self) -> Dict[str, Any]:
        """Counters/histograms changed since the last call, gauges current.

        The first call returns everything (delta against zero)."""
        snapshot = self.metrics.snapshot()
        counters: Dict[str, float] = {}
        for name, value in snapshot["counters"].items():
            delta = value - self._last_counters.get(name, 0)
            if delta:
                counters[name] = delta
        self._last_counters = dict(snapshot["counters"])

        histograms: Dict[str, Dict[str, float]] = {}
        for name, data in snapshot["histograms"].items():
            previous = self._last_histograms.get(name, {})
            count = data["count"] - previous.get("count", 0)
            if count:
                histograms[name] = {
                    "count": count,
                    "sum": data["sum"] - previous.get("sum", 0.0),
                }
            self._last_histograms[name] = {
                "count": data["count"], "sum": data["sum"],
            }

        self._stream_seq += 1
        return {
            "node": self.node,
            "seq": self._stream_seq,
            "now": self._now(),
            "counters": counters,
            "gauges": snapshot["gauges"],
            "histograms": histograms,
        }

    # -- health ------------------------------------------------------------

    def health(self, **extra: Any) -> Dict[str, Any]:
        """Cheap liveness summary; ``extra`` lets the daemon add peer and
        channel counts without the collector knowing about either."""
        summary: Dict[str, Any] = {
            "node": self.node,
            "status": "ok",
            "uptime": self._now() - self.started_local,
            "trace_events": len(self.tracer),
            "trace_emitted": self.tracer.emitted,
            "trace_dropped": self.tracer.dropped,
        }
        summary.update(extra)
        return summary
