"""Order statistics shared by the benchmark and its comparison tool.

Stdlib only. Percentiles interpolate linearly between order statistics
(``statistics.quantiles(method="inclusive")``, numpy's default).
"""

from __future__ import annotations

from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0 < q < 100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def summary(values: Sequence[float]) -> dict[str, float]:
    """Sample count, median, quartiles and tail percentiles."""
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
        "p90": percentile(values, 90.0),
        "p99": percentile(values, 99.0),
    }

