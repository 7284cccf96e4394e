"""Order statistics the benchmark reports, from its own code only."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Tail percentiles a workload may report, highest first. p99 is left
#: out: on a shared two-core machine it mostly measures the scheduler.
TAIL_LADDER = (95, 90, 75, 50)

#: A percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile, interpolating linearly between the closest
    ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the q-th percentile."""
    return n - math.ceil(n * q / 100.0)


def tail_percentile(n: int) -> int | None:
    """The highest :data:`TAIL_LADDER` percentile that leaves at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it, or ``None``."""
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives
    them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
