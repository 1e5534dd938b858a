"""Order statistics and tallies used by the benchmark report."""
from __future__ import annotations

import math


def percentile(values, p):
    """p-th percentile (0..100) by linear interpolation between order
    statistics (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least `beyond` of n samples above it.

    Clamped to [50, 99]: with fewer than 2 * beyond samples no percentile
    above the median qualifies, and the tail is reported at the median.
    """
    if n <= 0:
        return 50
    p = math.floor(100.0 * (1.0 - beyond / n) + 1e-9)
    return max(50, min(99, p))


def fail_rate(failed, attempted):
    """Share of attempted runs that raised, exited non-zero or failed a check."""
    if attempted <= 0:
        raise ValueError("no runs attempted")
    return failed / attempted
