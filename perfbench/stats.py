"""Order statistics for the end-to-end latency metrics."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it.  No interpolation, so the result is always one
    measured latency."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    return xs[max(1, math.ceil(q / 100 * len(xs))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-th percentile of n samples."""
    return n - max(1, math.ceil(q / 100 * n))


def tail_percentile(n: int, preferred: float) -> float:
    """Percentile reported as the latency tail for n samples.

    ``preferred`` when at least ten samples lie beyond it; otherwise the
    highest whole percentile that still has ten beyond it; with ten samples
    or fewer, the maximum (100).
    """
    if samples_beyond(n, preferred) >= 10:
        return preferred
    for q in range(99, 0, -1):
        if samples_beyond(n, q) >= 10:
            return q
    return 100
