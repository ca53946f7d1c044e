"""Structured trace events on the simulated clock.

A :class:`Tracer` holds a bounded ring of ``(time, name, fields)`` events.
Time comes from a bound clock callable — benchmarks bind the DES clock so
every event is stamped with *simulated* seconds, not wall-clock.  When the
ring overflows, the oldest events are dropped and counted, never raised:
tracing must not perturb the run it observes.

Causal tracing rides on top: a tracer carries at most one *active*
:class:`~repro.obs.context.TraceContext`.  While a context is active,
every event and span is stamped with ``trace``/``span``/``parent``
fields, and :meth:`span` derives a child context for its body so nested
work chains causally.  Message receive paths :meth:`activate` the
context carried on the wire; send paths read :attr:`context` to attach
it to outgoing messages.  With no active context (the default) events
keep their original untagged shape and nothing is allocated.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

from repro.obs.context import TraceContext

__all__ = ["Tracer", "NullTracer", "NO_TRACE", "DEFAULT_CAPACITY"]

DEFAULT_CAPACITY = 8192

TraceEvent = Tuple[float, str, Dict[str, Any]]


def _zero() -> float:
    return 0.0


class Tracer:
    """Bounded ring buffer of structured events."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 now: Optional[Callable[[], float]] = None) -> None:
        if capacity <= 0:
            raise ValueError(f"trace capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._now = now if now is not None else _zero
        self.emitted = 0
        self._context: Optional[TraceContext] = None

    def bind_clock(self, now: Callable[[], float]) -> None:
        """Stamp subsequent events with ``now()`` — benchmarks bind the
        simulated clock here (the last binder wins; one simulation is
        traced at a time)."""
        self._now = now

    def now(self) -> float:
        return self._now()

    def emit(self, name: str, **fields: Any) -> None:
        """Record one event at the current (simulated) time.  While a
        context is active the event is stamped with its causal triple."""
        self.emitted += 1
        context = self._context
        if context is not None:
            fields.setdefault("trace", context.trace_id)
            fields.setdefault("span", context.span_id)
            fields.setdefault("parent", context.parent_id)
        self._events.append((self._now(), name, fields))

    # -- causal context ----------------------------------------------------

    @property
    def context(self) -> Optional[TraceContext]:
        """The active causal context, or ``None`` when untraced."""
        return self._context

    @contextmanager
    def activate(self, context: Optional[TraceContext]) -> Iterator[None]:
        """Make ``context`` active for the block (receive-side hook).

        ``None`` leaves the current context in place, so call sites can
        pass whatever rode the message without a branch."""
        previous = self._context
        if context is not None:
            self._context = context
        try:
            yield
        finally:
            self._context = previous

    @contextmanager
    def root_span(self, name: str, **fields: Any) -> Iterator[TraceContext]:
        """Start a fresh trace: a new root context is active for the body
        and the span event is emitted on exit.  Use at trace origins —
        user-initiated payments, multihop route setup."""
        previous = self._context
        self._context = TraceContext.root()
        start = self._now()
        try:
            yield self._context
        finally:
            try:
                self.emit(name, duration=self._now() - start, **fields)
            finally:
                self._context = previous

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[Optional[TraceContext]]:
        """Emit ``name`` on exit with the elapsed simulated ``duration``.

        Useful around scheduler-driven sections: the duration is simulated
        seconds, so a span around ``scheduler.run()`` measures makespan.
        While a context is active, the body runs under a derived *child*
        context and the exit event carries the child's causal triple."""
        start = self._now()
        parent = self._context
        if parent is not None:
            self._context = parent.child()
        try:
            yield self._context
        finally:
            try:
                self.emit(name, duration=self._now() - start, **fields)
            finally:
                self._context = parent

    @property
    def dropped(self) -> int:
        """Events lost to ring overflow."""
        return self.emitted - len(self._events)

    def events(self) -> List[Dict[str, Any]]:
        """The retained events, oldest first, as JSON-ready dicts."""
        return [
            {"t": time, "event": name, **fields}
            for time, name, fields in self._events
        ]

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        return (f"Tracer(events={len(self._events)}/{self.capacity}, "
                f"dropped={self.dropped})")


class NullTracer(Tracer):
    """The module-level default: events vanish, spans still nest.

    Call sites check :attr:`enabled` before they emit or activate a
    context, so only the spans need a no-op here; an event emitted anyway
    is dropped by a ring that holds none."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)
        self._events = deque(maxlen=0)

    @contextmanager
    def root_span(self, name: str, **fields: Any) -> Iterator[None]:
        yield

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator[None]:
        yield


NO_TRACE = NullTracer()
