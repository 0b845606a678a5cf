"""Order statistics shared by the benchmark runner and compare mode."""

from __future__ import annotations

import math
import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank ``pct`` percentile and how many samples lie beyond it.

    Each workload fixes its tail percentile as the highest one with at
    least ten samples beyond it at the number of operations a run
    usually completes.  It stays fixed so that a commit completing more
    operations in the same time still reports the same percentile as
    its parent; the count beyond is printed with it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank
