"""Summary statistics used by the benchmark: percentiles, geometric means
and failure shares.

Everything here is pure and stdlib-only so the tests can exercise it without
importing germcalc.
"""

from __future__ import annotations

import math

# Report a tail percentile only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, the same rule as ``statistics.quantiles(method="inclusive")``."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int | None:
    """The highest of p95, p90, p75 with at least MIN_TAIL_SAMPLES of n
    samples beyond it, or None when even p75 has too few."""
    for q in (95, 90, 75):
        if n * (100 - q) / 100.0 >= MIN_TAIL_SAMPLES:
            return q
    return None


def geometric_mean(values) -> float:
    if not values:
        raise ValueError("geometric mean of no samples")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fail_share(failed: int, attempted: int) -> float:
    """Failed cases over attempted cases; an empty run counts as all failed."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"inconsistent counts: failed={failed} attempted={attempted}")
    if attempted == 0:
        return 1.0
    return failed / attempted


def by_case(executions, distinct: int, value) -> list[list[float]]:
    """``value(entry)`` of every execution, grouped by its case index
    ``entry[0]``; every case index below ``distinct`` must occur."""
    groups: list[list[float]] = [[] for _ in range(distinct)]
    for entry in executions:
        groups[entry[0]].append(value(entry))
    if any(not g for g in groups):
        raise ValueError("a distinct case was never run")
    return groups
