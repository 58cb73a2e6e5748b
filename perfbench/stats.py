"""Percentiles by the benchmark's reporting rule.

A latency distribution is reported as its median and its *tail*: the
highest of the percentiles in :data:`CANDIDATES` that still has at
least :data:`MIN_BEYOND` samples beyond it.  With 56 samples that is
p80 (11 samples beyond; p90 would leave 5); with 20 it is p50.
Percentiles are nearest-rank, so every reported value is a measured
sample.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

CANDIDATES = (50, 80, 90, 95, 99, 99.9)
MIN_BEYOND = 10


def rank(count: int, pct: float) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count`` samples."""
    # Rounded first, so float error (99.9 / 100 * 10000 = 9990.000…2)
    # cannot push an exact rank up by one.
    return max(1, math.ceil(round(pct * count / 100.0, 9)))


def tail_percentile(count: int) -> Optional[float]:
    """The highest candidate percentile with at least ``MIN_BEYOND``
    samples beyond its rank, or ``None`` below ``MIN_BEYOND * 2``."""
    best = None
    for pct in CANDIDATES:
        if count - rank(count, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: Optional[float]) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values or pct is None:
        raise ValueError(f"no percentile {pct} of {len(values)} samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]
