"""Exporters: JSON sidecars and Chrome/Perfetto traces.

Convention (see ROADMAP.md): a benchmark that prints a paper-vs-measured
table also writes ``BENCH_<name>.json`` beside itself with the measured
rows under ``"results"`` and the full metrics snapshot under
``"metrics"`` (plus ``"trace"`` when tracing was on).  Downstream perf
PRs diff those sidecars instead of re-parsing printed tables.

:func:`chrome_trace` renders trace events as the Chrome trace-event
JSON that Perfetto / ``chrome://tracing`` load directly — duration
events (``ph: "X"``) per span, one named process row per node.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = [
    "build_payload",
    "chrome_trace",
    "dump_json",
    "export_json",
    "load_json",
]


def build_payload(metrics: Optional[MetricsRegistry] = None,
                  tracer: Optional[Tracer] = None,
                  extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the sidecar dict: ``extra`` rows first, then the metrics
    snapshot and trace events."""
    payload: Dict[str, Any] = dict(extra) if extra else {}
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    if tracer is not None:
        payload["trace"] = {
            "events": tracer.events(),
            "emitted": tracer.emitted,
            "dropped": tracer.dropped,
        }
    return payload


def dump_json(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_coerce)


def export_json(path: str,
                metrics: Optional[MetricsRegistry] = None,
                tracer: Optional[Tracer] = None,
                extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write the sidecar to ``path`` and return the payload."""
    payload = build_payload(metrics=metrics, tracer=tracer, extra=extra)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_json(payload))
        handle.write("\n")
    return payload


def load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _coerce(value: Any) -> Any:
    """Last-resort serialiser: sets become sorted lists, everything else
    its repr — a sidecar write must never crash a benchmark."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return repr(value)


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto JSON
# ---------------------------------------------------------------------------

_META_KEYS = frozenset(
    ("t", "start", "event", "duration", "trace", "span", "parent", "node"))


def chrome_trace(events: Iterable[Dict[str, Any]],
                 default_node: str = "main") -> Dict[str, Any]:
    """Render trace events as Chrome trace-event JSON (Perfetto-loadable).

    ``events`` are the dicts produced by :meth:`Tracer.events` or
    :func:`repro.obs.merge.merge_dumps`: ``t`` is the event's (end)
    timestamp in seconds; events with a ``duration`` become complete
    duration events (``ph: "X"``), the rest instants (``ph: "i"``).
    Each distinct ``node`` field becomes a named process row.
    """
    pids: Dict[str, int] = {}
    trace_events: List[Dict[str, Any]] = []
    for event in events:
        node = event.get("node", default_node)
        pid = pids.get(node)
        if pid is None:
            pid = pids[node] = len(pids) + 1
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": node},
            })
        duration = event.get("duration")
        end = float(event.get("t", 0.0))
        start = float(event.get(
            "start", end - duration if duration else end))
        args = {key: value for key, value in event.items()
                if key not in _META_KEYS}
        for key in ("trace", "span", "parent"):
            if event.get(key):
                args[key] = event[key]
        record: Dict[str, Any] = {
            "name": str(event.get("event", "?")),
            "cat": str(event.get("event", "?")).split(".", 1)[0],
            "pid": pid,
            "tid": 0,
            "ts": start * 1e6,  # trace-event timestamps are microseconds
            "args": args,
        }
        if duration is not None:
            record["ph"] = "X"
            record["dur"] = float(duration) * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
