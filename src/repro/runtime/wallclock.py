"""Wall-clock stand-in for the DES :class:`~repro.simulation.scheduler.Scheduler`.

Protocol code (``AsyncBlockchainClient``, payment batching, the miner)
takes a scheduler and calls ``now`` / ``call_after``.  In the simulator
those drive a virtual clock; in a live daemon the same code must run
against real time on an asyncio loop.  This is the part of the
scheduler interface a daemon reaches, and nothing more: the asyncio loop
is the event loop, so there is no ``run`` to drain (``TeechainNetwork``
and ``TeechainNode`` call ``scheduler.run()`` only for the DES
transports).

* ``now`` is seconds of ``time.monotonic()`` since construction, so
  timestamps look like a simulation that started at t=0 (the blockchain's
  genesis timestamp convention).
* ``call_after(delay, cb)`` with ``delay == 0`` runs ``cb`` *inline*.
  This is load-bearing: ``AsyncBlockchainClient.broadcast`` with a
  zero-delay adversary must submit the transaction before the caller's
  next statement (e.g. ``create_deposit`` broadcasts then immediately
  mines), exactly as the DES delivers zero-delay events before control
  returns via ``scheduler.run()``.
* Positive delays go through ``loop.call_later`` and return a cancellable
  handle compatible with :class:`~repro.simulation.scheduler.Event`.
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


class WallClockScheduler:
    """Real-time scheduler: the simulator Scheduler's ``now`` and
    ``call_after``."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop
        self._epoch = time.monotonic()

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

    def call_after(self, delay: float, callback: Callable[[], Any]) -> _Handle:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        if delay == 0:
            # Inline, matching the DES contract that zero-delay events run
            # before control returns to the driving code.
            callback()
            return _Handle(self.now)
        handle = _Handle(self.now + delay)

        def fire() -> None:
            if handle.cancelled:
                return
            callback()

        handle._timer = self._get_loop().call_later(delay, fire)
        return handle
