"""Observability for the DES core: metrics, trace events, JSON export.

Three pieces (paper-independent infrastructure; see DESIGN.md §5):

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms, O(1) per record.
* :class:`~repro.obs.trace.Tracer` — a bounded ring of structured events
  (:meth:`emit`, :meth:`span`) stamped with *simulated* time.
* :mod:`~repro.obs.export` — the ``BENCH_*.json`` sidecar writer.

The module-level default for both is a shared no-op (:data:`NOOP`,
:data:`NO_TRACE`): instrumented code calls :func:`get_metrics` /
:func:`get_tracer` at construction time and pays one attribute check per
record when observability is off.  Benchmarks turn collection on with::

    with obs.collecting() as (registry, tracer):
        result = NetworkSimulation(config).run()
    export_json("BENCH_run.json", metrics=registry, tracer=tracer)

``collecting`` installs a fresh registry/tracer as the module default for
the duration of the block and restores the previous ones after, so
nested or sequential collections never bleed into each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from repro.obs.audit import (
    ALERT_CODES,
    CRITICAL,
    WARN,
    Alert,
    InvariantAuditor,
)
from repro.obs.context import TraceContext, new_span_id, new_trace_id
from repro.obs.export import (
    build_payload,
    chrome_trace,
    dump_json,
    export_json,
    fleet_prometheus_text,
    load_json,
    prometheus_text,
)

# NOTE: FleetMonitor lives in repro.obs.fleet and is imported from there
# directly — it pulls in repro.runtime (the control client), which this
# package must not import at init time (runtime's codec imports
# repro.obs.context back).
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    exponential_buckets,
    linear_buckets,
    nearest_rank,
)
from repro.obs.trace import DEFAULT_CAPACITY, NO_TRACE, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NullTracer",
    "Tracer",
    "NOOP",
    "NO_TRACE",
    "DEFAULT_BUCKETS",
    "DEFAULT_CAPACITY",
    "linear_buckets",
    "exponential_buckets",
    "nearest_rank",
    "get_metrics",
    "set_metrics",
    "get_tracer",
    "set_tracer",
    "collecting",
    "emit",
    "span",
    "op_span",
    "TraceContext",
    "new_trace_id",
    "new_span_id",
    "build_payload",
    "chrome_trace",
    "dump_json",
    "export_json",
    "load_json",
    "prometheus_text",
    "fleet_prometheus_text",
    "Alert",
    "InvariantAuditor",
    "ALERT_CODES",
    "WARN",
    "CRITICAL",
]

_metrics: MetricsRegistry = NOOP
_tracer: Tracer = NO_TRACE


def get_metrics() -> MetricsRegistry:
    """The currently installed registry (the shared no-op by default)."""
    return _metrics


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the module default; returns the previous
    one so callers can restore it."""
    global _metrics
    previous = _metrics
    _metrics = registry
    return previous


def get_tracer() -> Tracer:
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def collecting(
    capacity: int = DEFAULT_CAPACITY,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Install a fresh registry and tracer for the duration of the block."""
    registry = metrics if metrics is not None else MetricsRegistry()
    trace = tracer if tracer is not None else Tracer(capacity=capacity)
    previous_metrics = set_metrics(registry)
    previous_tracer = set_tracer(trace)
    try:
        yield registry, trace
    finally:
        set_metrics(previous_metrics)
        set_tracer(previous_tracer)


def emit(name: str, **fields: Any) -> None:
    """Emit a trace event into the current tracer (no-op by default)."""
    _tracer.emit(name, **fields)


def span(name: str, **fields: Any):
    """Span context manager on the current tracer (no-op by default)."""
    return _tracer.span(name, **fields)


def op_span(name: str, **fields: Any):
    """Span for a user-initiated operation: starts a *new trace* when no
    context is active (a payment issued at this node becomes a trace
    root), otherwise nests as a child span.  No-op when tracing is off."""
    if _tracer.context is None:
        return _tracer.root_span(name, **fields)
    return _tracer.span(name, **fields)
