"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The measurement half of :mod:`repro.obs`. A :class:`MetricsRegistry`
holds named instruments that instrumented code increments on hot paths;
``registry.summary()`` flattens everything into a plain dict the
benchmark suite can embed in ``BENCH_*.json`` files.

Instruments:

* :class:`Counter` -- monotonically accumulating integer/float total.
  Backed by Python's arbitrary-precision ints, so it never overflows.
* :class:`Gauge` -- a last-write-wins value (queue depth, graph size).
* :class:`Histogram` -- fixed upper-bound buckets with p50/p95/p99
  summaries. Observation is a binary search plus two adds; percentiles
  interpolate linearly *within* the bucket containing the target rank
  (clamped to the observed min/max; the overflow bucket reports the
  observed maximum), so the error is bounded by one bucket width
  rather than always rounding up to the bucket's upper bound.

Two helpers serve every harness that holds raw data instead of
instruments: :func:`percentile_exact` over raw latency samples and
:func:`counter_deltas` between two counter snapshots.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

#: Default histogram upper bounds, tuned for millisecond timings.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0,
    100.0, 500.0, 1000.0, 5000.0, 10000.0,
)


def percentile_exact(samples: Iterable[float], p: float) -> float:
    """Linear-interpolation percentile over raw samples (numpy's
    default method, without numpy); raises on no samples."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    if len(ordered) == 1:
        return ordered[0]
    position = (p / 100.0) * (len(ordered) - 1)
    lower = math.floor(position)
    upper = math.ceil(position)
    if lower == upper:
        return ordered[lower]
    fraction = position - lower
    return ordered[lower] + fraction * (ordered[upper] - ordered[lower])


def counter_deltas(before: Mapping[str, float],
                   after: Mapping[str, float]) -> dict[str, float]:
    """The non-zero ``after - before`` of every counter in ``after``
    (absent from ``before`` counts as 0), in ``after``'s order."""
    deltas: dict[str, float] = {}
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            deltas[name] = delta
    return deltas


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        with self._lock:
            self.value += amount

    def set(self, value: int | float) -> None:
        """Overwrite the total (used to restore saved stats)."""
        with self._lock:
            self.value = value

    def reset(self) -> None:
        self.set(0)


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | int | None = None

    def set(self, value: float | int) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = None


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    ``buckets`` are inclusive upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit
    overflow bucket past the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total",
                 "min", "max", "_lock")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and "
                             "non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.bounds, value)
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value

    def percentile(self, p: float) -> float | None:
        """The pth-percentile estimate, interpolated within its bucket
        (None when empty; overflow reports the observed maximum).

        The target rank is ``ceil(p/100 * count)`` clamped to >= 1 (the
        conventional nearest-rank definition), then the estimate is a
        linear interpolation across the bucket holding that rank: a
        bucket whose observations fill ranks ``prev+1 .. prev+n``
        resolves rank ``prev+i`` to ``lower + (i/n) * (upper - lower)``.
        The bucket's lower edge is the previous bound, clamped up to
        the observed minimum (it *is* the observed minimum for the
        first bucket), and its upper edge is clamped down to the
        observed maximum — so a single observation reports itself, and
        no percentile is ever below the smallest observed value.

        **Error bound:** the true order statistic lies somewhere in the
        same bucket, so the estimate is off by at most one bucket width
        (for skewed latency data the old upper-bound rule *always* paid
        the full width; interpolation is exact for uniformly spread
        buckets and still within the width in the worst case). Ranks in
        the overflow bucket resolve to the observed maximum.
        """
        if self.count == 0:
            return None
        rank = max(1, math.ceil(p / 100.0 * self.count))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                if index == len(self.bounds):  # overflow bucket
                    return self.max
                upper = self.bounds[index]
                if self.max is not None:
                    upper = min(upper, self.max)
                lower = self.bounds[index - 1] if index else self.min
                if self.min is not None:
                    # The bucket holding the observed minimum has a
                    # lower edge below every real observation; without
                    # this clamp a low-rank percentile interpolates to
                    # a value no observation ever took (e.g. a single
                    # 700ms sample in the 500-1000 bucket reporting
                    # p50 < 700).
                    lower = max(lower, self.min)
                lower = min(lower, upper)
                fraction = (rank - previous) / bucket_count
                return lower + fraction * (upper - lower)
        return self.max

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def summary(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def reset(self) -> None:
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None


class MetricsRegistry:
    """Named instruments, created on first use.

    Get-or-create is locked; each instrument serializes its own
    updates, so concurrent hot paths never corrupt totals.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument access ------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS,
                  ) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(
                    name, Histogram(name, buckets))

    # -- convenience ------------------------------------------------------

    def inc(self, name: str, amount: int | float = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float | int) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- reporting --------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Everything the registry holds, as a plain JSON-ready dict."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self._histograms.items())},
        }

    def reset(self) -> None:
        with self._lock:
            for instrument in (*self._counters.values(),
                               *self._gauges.values(),
                               *self._histograms.values()):
                instrument.reset()

    def clear(self) -> None:
        """Drop every instrument (reset keeps them at zero instead)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry used by the instrumented subsystems."""
    return _REGISTRY
