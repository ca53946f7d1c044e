"""Wall-clock stand-in for the DES :class:`~repro.simulation.scheduler.Scheduler`.

Protocol code (``AsyncBlockchainClient``, payment batching, the miner)
takes a scheduler and calls ``now`` / ``call_after`` / ``call_at``.  In the
simulator those drive a virtual clock; in a live daemon the same code must
run against real time on an asyncio loop.  This shim satisfies that
duck-typed interface:

* ``now`` is seconds of ``time.monotonic()`` since construction, so
  timestamps look like a simulation that started at t=0 (the blockchain's
  genesis timestamp convention).
* ``call_after(delay, cb)`` with ``delay <= 0`` runs ``cb`` *inline*.
  This is load-bearing: ``AsyncBlockchainClient.broadcast`` with a
  zero-delay adversary must submit the transaction before the caller's
  next statement (e.g. ``create_deposit`` broadcasts then immediately
  mines), exactly as the DES delivers zero-delay events before control
  returns via ``scheduler.run()``.
* Positive delays go through ``loop.call_later`` and return a cancellable
  handle compatible with :class:`~repro.simulation.scheduler.Event`.
* ``run`` / ``run_until_idle`` are no-ops — the asyncio loop is the event
  loop; simulation-style draining has no meaning here.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Optional

from repro.errors import SimulationError


class _Handle:
    """Cancellation handle mirroring ``Event.cancel``."""

    __slots__ = ("time", "cancelled", "_timer")

    def __init__(self, when: float,
                 timer: Optional[asyncio.TimerHandle] = None) -> None:
        self.time = when
        self.cancelled = False
        self._timer = timer

    def cancel(self) -> None:
        self.cancelled = True
        if self._timer is not None:
            self._timer.cancel()


class _ClockShim:
    """Read-only ``.now`` for code that reaches through ``scheduler.clock``."""

    __slots__ = ("_scheduler",)

    def __init__(self, scheduler: "WallClockScheduler") -> None:
        self._scheduler = scheduler

    @property
    def now(self) -> float:
        return self._scheduler.now


class WallClockScheduler:
    """Real-time scheduler with the simulator Scheduler's interface."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop
        self._epoch = time.monotonic()
        self._events_processed = 0
        self.clock = _ClockShim(self)

    def _get_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            try:
                self._loop = asyncio.get_running_loop()
            except RuntimeError:
                self._loop = asyncio.get_event_loop()
        return self._loop

    @property
    def now(self) -> float:
        return time.monotonic() - self._epoch

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def call_after(self, delay: float, callback: Callable[[], Any]) -> _Handle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if delay == 0:
            # Inline, matching the DES contract that zero-delay events run
            # before control returns to the driving code.
            self._events_processed += 1
            callback()
            return _Handle(self.now)
        handle = _Handle(self.now + delay)

        def fire() -> None:
            if handle.cancelled:
                return
            self._events_processed += 1
            callback()

        handle._timer = self._get_loop().call_later(delay, fire)
        return handle

    def call_at(self, timestamp: float, callback: Callable[[], Any]) -> _Handle:
        delay = timestamp - self.now
        if delay < 0:
            raise SimulationError(
                f"cannot schedule event at {timestamp} before now {self.now}"
            )
        return self.call_after(delay, callback)

    # The asyncio loop *is* the event loop; these exist so code written
    # against the DES scheduler is a no-op rather than a crash.
    def step(self) -> bool:
        return False

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        return None

    def run_until_idle(self, max_events: int = 0) -> None:
        return None
