"""Order statistics shared by the benchmark runner and ``compare.py``."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a latency tail may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the *p*-th percentile of *n* samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile (``0 < p <= 100``) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(p, len(values)) - 1]


def tail_percentile(n: int, beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest of :data:`TAIL_PERCENTILES` with at least *beyond* of
    *n* samples above its nearest rank, or ``None`` when even the median
    has fewer."""
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= beyond:
            best = p
    return best


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
