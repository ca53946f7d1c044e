"""Event scheduler: the heart of the discrete-event simulator.

Events are ``(time, sequence, callback)`` triples in a binary heap.  The
sequence number breaks ties so that events scheduled for the same instant
run in FIFO order — without it, simultaneous message deliveries would run
in arbitrary (heap) order and benchmarks would not be reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.obs import MetricsRegistry, get_metrics
from repro.simulation.clock import Clock


class Event:
    """A scheduled callback.  Returned by :meth:`Scheduler.call_at` so the
    caller can cancel it (e.g. a retransmission timer that is no longer
    needed)."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state})"


class Scheduler:
    """Priority-queue event loop over a :class:`Clock`.

    Typical use::

        sched = Scheduler()
        sched.call_after(0.090, deliver_message)
        sched.run()
        print(sched.clock.now)   # 0.090
    """

    def __init__(self, clock: Optional[Clock] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.clock = clock if clock is not None else Clock()
        self._queue: List[Event] = []
        self._seq = itertools.count()
        # Default to the module-level registry (a shared no-op unless a
        # benchmark is collecting); one ``enabled`` check per event.
        self._metrics = metrics if metrics is not None else get_metrics()

    @property
    def now(self) -> float:
        """Convenience accessor for the current simulated time."""
        return self.clock.now

    def call_at(self, timestamp: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``timestamp``."""
        if timestamp < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {timestamp} before now {self.clock.now}"
            )
        event = Event(timestamp, next(self._seq), callback)
        heapq.heappush(self._queue, event)
        return event

    def call_after(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self.clock.now + delay, callback)

    def step(self) -> bool:
        """Run the single earliest pending event.

        Returns ``True`` if an event ran, ``False`` if the queue was empty.
        Cancelled events are silently discarded.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                if self._metrics.enabled:
                    self._metrics.inc("scheduler.cancelled_skipped")
                continue
            self.clock.advance_to(event.time)
            if self._metrics.enabled:
                self._metrics.inc("scheduler.events_processed")
                self._metrics.set_gauge("scheduler.queue_depth",
                                        len(self._queue))
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have executed.

        ``until`` is inclusive: events scheduled exactly at ``until`` run,
        and the clock is left at ``until`` (or at the last event time if the
        queue drained earlier and ``until`` is ``None``).  When ``max_events``
        stops the loop the same contract holds, with one exception: if
        events at or before ``until`` are still pending, the clock stays at
        the last executed event — it cannot truthfully pass events that have
        not run yet.
        """
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            nxt = self._peek()
            if nxt is None:
                break
            if until is not None and nxt.time > until:
                break
            if self.step():
                executed += 1
        if until is not None and self.clock.now < until:
            nxt = self._peek()
            if nxt is None or nxt.time > until:
                self.clock.advance_to(until)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Drain the queue completely, guarding against runaway loops."""
        executed = 0
        while self.step():
            executed += 1
            if executed >= max_events:
                raise SimulationError(
                    f"simulation did not quiesce after {max_events} events"
                )

    def _peek(self) -> Optional[Event]:
        """Return the earliest non-cancelled event without removing it.

        Cancelled events drained here count towards the churn metric just
        like the ones :meth:`step` discards.
        """
        while self._queue:
            event = self._queue[0]
            if event.cancelled:
                heapq.heappop(self._queue)
                if self._metrics.enabled:
                    self._metrics.inc("scheduler.cancelled_skipped")
                continue
            return event
        return None
