"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# Percentiles the report may quote for a latency, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is quoted only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples; the rounding
    keeps p * n / 100 from landing a hair above an integer."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), p) - 1])


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p) if n else 0


def highest_percentile(n: int, candidates=PERCENTILES,
                       min_beyond: int = MIN_BEYOND) -> float | None:
    """The highest candidate percentile with at least ``min_beyond`` of the
    n samples beyond it, or None when not even the lowest qualifies."""
    best = None
    for p in candidates:
        if samples_beyond(n, p) >= min_beyond:
            best = p
    return best

