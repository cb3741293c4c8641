"""Harrell-Davis quantile estimate (Harrell and Davis 1982, Biometrika 69).

The estimate is a weighted mean of all order statistics, with weights from
the Beta(p(n+1), (1-p)(n+1)) distribution.  Near p90 only a few ops lie in
the tail, and their latencies are noisy; interpolating between two of them
moves a lot from run to run, while the weighted mean moves much less.
"""

from __future__ import annotations

import math
from typing import Sequence

_TINY = 1e-300


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d or _TINY)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 / ((1.0 + num * d) or _TINY)
            c = (1.0 + num / c) or _TINY
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta fraction did not converge")


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: Sequence[float], p: float) -> float:
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))
