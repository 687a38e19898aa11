"""Tests for the from-scratch Welch t-test, cross-checked against scipy."""

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import ttest
from repro.stats.ttest import (
    _betainc,
    _student_t_sf,
    mean_exceeds,
    means_differ,
    welch_t_test,
)


def test_matches_scipy_two_sided():
    rng = np.random.default_rng(0)
    a = rng.normal(10, 2, 30).tolist()
    b = rng.normal(11, 3, 25).tolist()
    ours = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)


def test_matches_scipy_one_sided():
    rng = np.random.default_rng(1)
    a = rng.normal(12, 2, 20).tolist()
    b = rng.normal(10, 2, 20).tolist()
    ours = welch_t_test(a, b, alternative="greater")
    ref = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)
    ours_less = welch_t_test(a, b, alternative="less")
    ref_less = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="less")
    assert ours_less.p_value == pytest.approx(ref_less.pvalue, rel=1e-6)


def test_identical_samples_do_not_differ():
    a = [1.0, 2.0, 3.0, 4.0]
    assert not means_differ(a, list(a))


def test_clearly_different_samples_differ():
    a = [1.0, 1.1, 0.9, 1.05, 0.95] * 4
    b = [5.0, 5.1, 4.9, 5.05, 4.95] * 4
    assert means_differ(a, b)


def test_mean_exceeds_directionality():
    low = [1.0, 1.1, 0.9, 1.05, 0.95] * 4
    high = [2.0, 2.1, 1.9, 2.05, 1.95] * 4
    assert mean_exceeds(high, low)
    assert not mean_exceeds(low, high)
    assert not mean_exceeds(low, list(low))


def test_constant_samples_equal():
    result = welch_t_test([2.0, 2.0, 2.0], [2.0, 2.0])
    assert result.p_value == 1.0


def test_constant_samples_unequal():
    result = welch_t_test([2.0, 2.0, 2.0], [3.0, 3.0])
    assert result.p_value == 0.0
    assert result.rejects_at(0.05)


def test_short_samples_rejected():
    with pytest.raises(ValueError):
        welch_t_test([1.0], [1.0, 2.0])


def test_bad_alternative_rejected():
    with pytest.raises(ValueError):
        welch_t_test([1.0, 2.0], [1.0, 2.0], alternative="sideways")


def test_bad_alpha_rejected():
    result = welch_t_test([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        result.rejects_at(0)


def test_student_sf_matches_scipy():
    for t, df in [(0.0, 5), (1.5, 10), (-2.0, 3), (4.0, 30)]:
        assert _student_t_sf(t, df) == pytest.approx(
            scipy.stats.t.sf(t, df), abs=1e-9
        )


def test_student_sf_matches_betainc_over_grid():
    """The from-scratch incomplete beta against scipy's, over the df/t
    range Welch tests can produce (df log-spaced, both tails)."""
    worst = 0.0
    for df in np.logspace(np.log10(0.5), 5, 60):
        for t in np.linspace(-60.0, 60.0, 121):
            x = df / (df + t * t)
            ref = 0.5 * scipy.special.betainc(df / 2.0, 0.5, x)
            ref = ref if t >= 0 else 1.0 - ref
            worst = max(worst, abs(_student_t_sf(float(t), float(df)) - ref))
    assert worst <= 1e-9


def test_betainc_edges():
    for a, b in [(0.25, 0.5), (3.0, 0.5), (5e4, 0.5)]:
        assert _betainc(a, b, 0.0) == 0.0
        assert _betainc(a, b, 1.0) == 1.0
    # Both sides of the symmetry crossover x = (a + 1) / (a + b + 2).
    for x in (0.1, 0.7, 0.75, 0.8, 0.99):
        assert _betainc(2.0, 0.5, x) == pytest.approx(
            scipy.special.betainc(2.0, 0.5, x), abs=1e-12
        )
    assert _student_t_sf(0.0, 7.0) == 0.5
    assert _student_t_sf(float("inf"), 7.0) == 0.0
    assert _student_t_sf(float("-inf"), 7.0) == 1.0
    for df in (0.0, -1.0):
        with pytest.raises(ValueError):
            _student_t_sf(1.0, df)


def test_betainc_raises_instead_of_returning_unconverged(monkeypatch):
    monkeypatch.setattr(ttest, "_BETACF_MAX_ITER", 1)
    with pytest.raises(ArithmeticError):
        _betainc(5e4, 0.5, 0.9999)


@given(
    loc_a=st.floats(-100, 100),
    loc_b=st.floats(-100, 100),
    scale=st.floats(0.1, 10),
    n=st.integers(5, 50),
)
@settings(max_examples=40, deadline=None)
def test_property_matches_scipy(loc_a, loc_b, scale, n):
    rng = np.random.default_rng(abs(hash((loc_a, loc_b, scale, n))) % 2**31)
    a = rng.normal(loc_a, scale, n).tolist()
    b = rng.normal(loc_b, scale, n + 3).tolist()
    ours = welch_t_test(a, b)
    ref = scipy.stats.ttest_ind(a, b, equal_var=False)
    assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-5, abs=1e-9)


def test_false_positive_rate_is_near_alpha():
    """Under the null, rejection frequency should be close to alpha."""
    rng = np.random.default_rng(42)
    rejections = 0
    trials = 400
    for _ in range(trials):
        a = rng.normal(0, 1, 20).tolist()
        b = rng.normal(0, 1, 20).tolist()
        if means_differ(a, b, alpha=0.05):
            rejections += 1
    assert rejections / trials == pytest.approx(0.05, abs=0.03)
