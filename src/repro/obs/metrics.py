"""Counters, gauges, and fixed-bucket histograms.

Every instrument is O(1) per record: counters and gauges are a single
attribute update, histograms a :func:`bisect.bisect_left` over a fixed
bucket list (``bisect_left`` so that bounds are *inclusive* upper
bounds — a value equal to a bound lands in that bound's bucket).  No locking — the reproduction is single-threaded by design
(the DES owns all concurrency).

The cost discipline is the :class:`NullMetrics` registry: a shared
singleton (:data:`NOOP`) whose instruments discard every record and whose
``enabled`` flag is ``False``.  Hot paths guard *name construction* (the
f-strings that build per-endpoint-pair or per-link metric names) behind
``registry.enabled`` so that a disabled run pays one attribute check, not
a string format.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NOOP",
    "DEFAULT_BUCKETS",
    "linear_buckets",
    "exponential_buckets",
    "nearest_rank",
]

# Latency-flavoured default buckets, in seconds: 100 µs … 10 s.  Callers
# with a different unit pass their own bounds (see the helpers below).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def linear_buckets(start: float, width: float, count: int) -> Tuple[float, ...]:
    """``count`` evenly spaced upper bounds from ``start``."""
    if width <= 0:
        raise ValueError(f"linear bucket width must be > 0, got {width}")
    return tuple(start + width * index for index in range(count))


def exponential_buckets(start: float, factor: float,
                        count: int) -> Tuple[float, ...]:
    """``count`` geometrically growing upper bounds from ``start``."""
    if factor <= 1:
        raise ValueError(
            f"exponential bucket factor must be > 1, got {factor}")
    if start <= 0:
        raise ValueError(f"exponential bucket start must be > 0, got {start}")
    bounds = []
    bound = start
    for _ in range(count):
        bounds.append(bound)
        bound *= factor
    return tuple(bounds)


def nearest_rank(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile over raw samples.

    The rank of the q-th quantile over n samples is ``ceil(q * n)``
    (1-based), with ``q = 0`` defined as the minimum.  Unlike the naive
    ``ordered[int(n * q)]`` this is exact at both ends — ``q = 1`` is the
    maximum, never an ``IndexError`` — and returns the *lower* median for
    even n rather than the upper.  The chaos benchmark reports its
    payment latency percentiles with it.

    ``samples`` need not be pre-sorted; a sorted copy is taken.
    """
    if not samples:
        raise ValueError("nearest_rank needs at least one sample")
    if not 0.0 <= q <= 1.0:  # NaN fails both comparisons too
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A point-in-time value (queue depth, outstanding window, …)."""

    __slots__ = ("name", "value", "peak")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """Fixed-bucket histogram with sum/count/min/max sidecars.

    ``bounds`` are inclusive upper bounds; one implicit overflow bucket
    catches everything above the last bound.  Recording is a bisect over
    the bounds — O(log #buckets), independent of the sample count.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "minimum", "maximum")

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None

    def record(self, value: float) -> None:
        # bisect_left keeps the documented inclusive-upper-bound
        # semantics: a value equal to a bound lands in that bound's
        # bucket, not the next one.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Named instruments, created on first use.

    ``enabled`` is the hot-path guard: instrumented code may skip metric
    *name construction* entirely when it is ``False`` (the no-op default).
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, buckets)
        return histogram

    # -- one-shot helpers --------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.histogram(name, buckets).record(value)

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A plain-dict copy of every instrument, JSON-serialisable."""
        return {
            "counters": {name: counter.value
                         for name, counter in sorted(self._counters.items())},
            "gauges": {name: {"value": gauge.value, "peak": gauge.peak}
                       for name, gauge in sorted(self._gauges.items())},
            "histograms": {name: histogram.to_dict()
                           for name, histogram
                           in sorted(self._histograms.items())},
        }

    def __repr__(self) -> str:
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)})")


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


class NullMetrics(MetricsRegistry):
    """The module-level default: every record is discarded.

    Instruments are shared singletons so that even
    ``registry.counter(name).inc()`` in a loop allocates nothing.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._null_histogram

NOOP = NullMetrics()
