"""Welch's t-test, implemented from scratch.

Ursa uses Welch's unequal-variances t-test in two places (paper §III and
§V):

* the backpressure profiler declares the proxy latency *converged* when the
  test cannot reject equality of the latency samples under the last two CPU
  limits, and
* the resource controller decides a scaling threshold is exceeded when the
  test rejects the hypothesis that the observed load is at most the recorded
  threshold load.

The implementation computes the Welch statistic and Welch-Satterthwaite
degrees of freedom directly and evaluates p-values with the regularised
incomplete beta function, itself written from scratch (:func:`_betainc`, a
Lentz continued fraction) so the package needs no special-function library.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["TTestResult", "welch_t_test", "means_differ", "mean_exceeds"]

_BETACF_EPS = 1e-15
_BETACF_TINY = 1e-300
_BETACF_MAX_ITER = 10_000


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta, by modified Lentz.

    Converges quickly for ``x < (a + 1) / (a + b + 2)``; raises
    :class:`ArithmeticError` rather than return an unconverged value.
    """
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _BETACF_TINY else _BETACF_TINY)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        m2 = 2 * m
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _BETACF_TINY else _BETACF_TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _BETACF_TINY else _BETACF_TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= _BETACF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b) for a, b > 0."""
    if math.isnan(x):
        return math.nan
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(a, b, x) / a
    # Symmetry I_x(a, b) = 1 - I_{1-x}(b, a) keeps the fraction in its
    # fast-converging region.
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def _student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) of Student's t with ``df`` degrees."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


@dataclass(frozen=True)
class TTestResult:
    """Outcome of a Welch t-test."""

    statistic: float
    df: float
    p_value: float

    def rejects_at(self, alpha: float) -> bool:
        """True when the null hypothesis is rejected at level ``alpha``."""
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        return self.p_value < alpha


def _moments(sample: Sequence[float]) -> tuple[float, float, int]:
    n = len(sample)
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    mean = sum(sample) / n
    var = sum((x - mean) ** 2 for x in sample) / (n - 1)
    return mean, var, n


def welch_t_test(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alternative: str = "two-sided",
) -> TTestResult:
    """Welch's unequal-variances t-test on two independent samples.

    ``alternative`` selects the alternative hypothesis:

    * ``"two-sided"`` -- means differ.
    * ``"greater"`` -- mean of ``sample_a`` exceeds mean of ``sample_b``.
    * ``"less"`` -- mean of ``sample_a`` is below mean of ``sample_b``.
    """
    if alternative not in ("two-sided", "greater", "less"):
        raise ValueError(f"unknown alternative: {alternative!r}")
    mean_a, var_a, n_a = _moments(sample_a)
    mean_b, var_b, n_b = _moments(sample_b)
    se2 = var_a / n_a + var_b / n_b
    if se2 == 0.0:
        # Both samples constant: identical means -> p=1, else p=0.
        equal = mean_a == mean_b
        stat = 0.0 if equal else math.copysign(math.inf, mean_a - mean_b)
        df = float(n_a + n_b - 2)
        if alternative == "two-sided":
            p = 1.0 if equal else 0.0
        elif alternative == "greater":
            p = 1.0 if (equal or mean_a < mean_b) else 0.0
        else:
            p = 1.0 if (equal or mean_a > mean_b) else 0.0
        return TTestResult(stat, df, p)
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2**2 / (
        (var_a / n_a) ** 2 / (n_a - 1) + (var_b / n_b) ** 2 / (n_b - 1)
    )
    if alternative == "two-sided":
        p = 2.0 * _student_t_sf(abs(t), df)
    elif alternative == "greater":
        p = _student_t_sf(t, df)
    else:
        p = _student_t_sf(-t, df)
    return TTestResult(t, df, min(1.0, p))


def means_differ(
    sample_a: Sequence[float],
    sample_b: Sequence[float],
    alpha: float = 0.05,
) -> bool:
    """Convenience wrapper: do the two samples have different means?

    This is the convergence check of the backpressure profiler: the proxy
    latency has converged when consecutive CPU-limit samples no longer
    differ (i.e. this returns False).
    """
    return welch_t_test(sample_a, sample_b, "two-sided").rejects_at(alpha)


def mean_exceeds(
    sample: Sequence[float],
    reference: Sequence[float],
    alpha: float = 0.05,
) -> bool:
    """True when ``sample``'s mean significantly exceeds ``reference``'s.

    Used by Ursa's resource controller (§V item 4): a scaling threshold is
    considered exceeded when the t-test rejects the hypothesis that the mean
    of the actual load is less than or equal to the recorded threshold load.
    """
    return welch_t_test(sample, reference, "greater").rejects_at(alpha)
