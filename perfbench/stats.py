"""Order statistics used by the runner and the A/A report."""

from __future__ import annotations

import math
import statistics


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them —
    the same estimator the benchmark contract's spread check uses."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for a constant)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def apportion(weights: list[float], total: int) -> list[int]:
    """Split *total* into integer parts proportional to *weights* (largest
    remainder), so a frequency distribution is realized exactly instead of
    sampled — the op mix is then the same multiset for every seed."""
    scale = total / sum(weights)
    exact = [weight * scale for weight in weights]
    parts = [int(value) for value in exact]
    by_remainder = sorted(
        range(len(weights)), key=lambda i: (parts[i] - exact[i], i)
    )
    for i in by_remainder[: total - sum(parts)]:
        parts[i] += 1
    return parts
