"""Order statistics shared by the harness processes (standard library only)."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order statistics."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(values, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(v > cut for v in values)
