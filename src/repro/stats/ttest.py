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
incomplete beta function (via :func:`scipy.special.betainc`, the only scipy
dependency).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from scipy.special import betainc

__all__ = ["TTestResult", "welch_t_test", "means_differ", "mean_exceeds"]


def _student_t_sf(t: float, df: float) -> float:
    """Survival function P(T > t) of Student's t with ``df`` degrees."""
    if df <= 0:
        raise ValueError(f"degrees of freedom must be > 0, got {df}")
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    x = df / (df + t * t)
    p = 0.5 * float(betainc(df / 2.0, 0.5, x))
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
