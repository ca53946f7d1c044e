"""Hardware monotonic counters.

SGX monotonic counters are throttled — the paper reports ~10 increments per
second and *emulates them with a 100 ms delay* in its own evaluation
(§7, "Implementation").  We reproduce that emulation: each increment
completes ``increment_delay`` seconds after it starts, and increments on
one counter serialise.  This is what caps the stable-storage row of
Table 1 at 10 tx/s.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import TEEError

DEFAULT_INCREMENT_DELAY = 0.100  # seconds; the paper's emulated value


class MonotonicCounter:
    """One counter.  Values only move up; increments are rate-limited."""

    def __init__(self, counter_id: int,
                 increment_delay: float = DEFAULT_INCREMENT_DELAY,
                 initial: int = 0) -> None:
        if initial < 0:
            raise TEEError(f"counter value cannot be negative: {initial}")
        self.counter_id = counter_id
        self.increment_delay = increment_delay
        self._value = initial
        # Simulated time at which the most recent increment completes.
        self._busy_until = 0.0

    @property
    def value(self) -> int:
        return self._value

    def increment(self, now: float) -> float:
        """Start an increment at simulated time ``now``.

        Returns the time at which the increment (and thus the dependent
        sealed write) completes.  Concurrent requests queue behind each
        other — this serialisation is the 10 ops/s bottleneck.
        """
        start = max(now, self._busy_until)
        self._busy_until = start + self.increment_delay
        self._value += 1
        return self._busy_until


class MonotonicCounterBank:
    """Per-enclave counter namespace (SGX allows a small fixed number)."""

    MAX_COUNTERS = 256

    def __init__(self, increment_delay: float = DEFAULT_INCREMENT_DELAY) -> None:
        self.increment_delay = increment_delay
        self._counters: Dict[int, MonotonicCounter] = {}
        self._next_id = 0

    def create(self, initial: int = 0) -> MonotonicCounter:
        """Allocate a counter.

        ``initial`` models the hardware property that counters survive
        power cycles: a restarted platform re-opens its counter at the
        persisted value, not at zero (otherwise every reboot would be a
        rollback opportunity)."""
        if len(self._counters) >= self.MAX_COUNTERS:
            raise TEEError("monotonic counter quota exhausted")
        counter = MonotonicCounter(self._next_id, self.increment_delay,
                                   initial=initial)
        self._counters[self._next_id] = counter
        self._next_id += 1
        return counter
