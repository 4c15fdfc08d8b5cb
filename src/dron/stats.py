"""Paired t-test with a self-contained Student-t CDF.

The two-tailed p-value comes from the regularized incomplete beta function
I_x(a, b), evaluated with the standard continued-fraction expansion (modified
Lentz). For t with nu degrees of freedom, p = I_{nu/(nu+t^2)}(nu/2, 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import UsageError

_MAX_ITER = 300
_CF_EPS = 1e-15
_Z_90 = 1.645  # two-sided 90% normal quantile


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1], accurate to ~1e-14."""
    if not 0.0 <= x <= 1.0:
        raise UsageError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: int) -> float:
    """P(|T| >= |t|) for T ~ Student-t with df degrees of freedom."""
    if df < 1:
        raise UsageError("degrees of freedom must be at least 1")
    if math.isinf(t):
        return 0.0
    x = df / (df + t * t)
    return regularized_incomplete_beta(df / 2.0, 0.5, x)


@dataclass(frozen=True)
class TTestResult:
    t: float
    p: float
    df: int
    degenerate: bool = False  # zero-variance differences


def paired_ttest(series_a: Sequence[float], series_b: Sequence[float]) -> TTestResult:
    """Classic paired t-test on the per-index differences.

    Pairs are matched by position (runs evaluated with shared seeds). With
    zero-variance differences the statistic is degenerate: identical series
    give t=0, p=1; a constant nonzero difference gives the infinity sentinel
    with p=0.
    """
    if len(series_a) != len(series_b):
        raise UsageError(
            f"paired series must have equal lengths, got {len(series_a)} and {len(series_b)}")
    n = len(series_a)
    if n < 2:
        raise UsageError("need at least two pairs")
    for pair, (a, b) in enumerate(zip(series_a, series_b), start=1):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise UsageError(f"paired values must be finite, pair {pair} is ({a}, {b})")
    diffs = [float(a) - float(b) for a, b in zip(series_a, series_b)]
    mean = sum(diffs) / n
    var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if var == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, p=1.0, df=df, degenerate=True)
        return TTestResult(t=math.copysign(math.inf, mean), p=0.0, df=df, degenerate=True)
    t = mean / math.sqrt(var / n)
    return TTestResult(t=t, p=student_t_two_tailed(t, df), df=df)


def mean_confidence_halfwidth(values: Sequence[float]) -> float:
    """Normal-approximation 90% CI half-width for a seed mean."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return _Z_90 * math.sqrt(var / n)
