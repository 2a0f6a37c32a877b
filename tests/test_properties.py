"""Invariances the procedures promise, checked on generated data.

Data are dyadic (multiples of 1/16 within +-256), so shifting them by an
integer and scaling them by a power of two is exact: any difference in
a statistic comes from the statistic's own rounding, which a relative
tolerance of 1e-9 covers.  The tolerance also allows 1e-9 absolute,
because Bartlett's M is a difference of logarithms of order 10-100: a
value near zero carries that rounding as an absolute error.  A test
that finds the data degenerate must do so before and after the
transformation alike.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vartests import (
    AdaptiveConfig,
    DegenerateDataError,
    GroupedSample,
    ValidationError,
    adaptive_anova,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    levene_test,
    trend_test,
    welch_anova,
)
from vartests.samples import CENTERS
from vartests.spread import CORRECTIONS
from vartests.trend import SIDES

_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

_DYADIC = st.integers(-4096, 4096).map(lambda i: i / 16)


def _groups(values=_DYADIC, min_size=3):
    return st.lists(st.lists(values, min_size=min_size, max_size=9), min_size=2, max_size=5)


def _sample(groups):
    return GroupedSample(tuple((f"g{i + 1}", np.asarray(g, dtype=float)) for i, g in enumerate(groups)))


_SPREAD_TESTS = {
    **{
        f"levene:{center}:{correction}": (
            lambda s, center=center, correction=correction: levene_test(s, center, correction)
        )
        for center in CENTERS
        for correction in CORRECTIONS
        if correction != "hines-hines" or center == "median"
    },
    "bartlett": bartlett_m,
    "box-anderson": box_anderson_b3,
}
_OMNIBUS_TESTS = {**_SPREAD_TESTS, "anova": anova_f, "welch": welch_anova}
_TREND_Z = {
    f"trend:{center}": (lambda s, center=center: trend_test(s, None, center).z_statistic)
    for center in CENTERS
}


def _statistics(tests):
    return {name: (lambda s, test=test: test(s).statistic) for name, test in tests.items()}


def _outcome(run, sample):
    try:
        return run(sample)
    except DegenerateDataError:
        return None


def _assert_same(statistics, before, after, sign=1.0):
    for name, statistic in statistics.items():
        a, b = _outcome(statistic, before), _outcome(statistic, after)
        assert (a is None) == (b is None), f"{name}: degenerate on one side only ({a!r}, {b!r})"
        if a is not None:
            assert math.isclose(b, sign * a, rel_tol=1e-9, abs_tol=1e-9), f"{name}: {a!r} became {b!r}"


@_SETTINGS
@given(groups=_groups(), shift=st.integers(-1024, 1024), power=st.integers(-4, 4))
def test_spread_statistics_and_trend_z_are_location_and_scale_invariant(groups, shift, power):
    moved = [shift + 2.0**power * np.asarray(g) for g in groups]
    _assert_same({**_statistics(_SPREAD_TESTS), **_TREND_Z}, _sample(groups), _sample(moved))


@_SETTINGS
@given(groups=_groups(), order=st.data())
def test_group_order_leaves_the_omnibus_tests_unchanged(groups, order):
    permutation = order.draw(st.permutations(range(len(groups))))
    _assert_same(_statistics(_OMNIBUS_TESTS), _sample(groups), _sample([groups[i] for i in permutation]))


@_SETTINGS
@given(groups=_groups())
def test_reversing_the_groups_negates_the_trend_z(groups):
    _assert_same(_TREND_Z, _sample(groups), _sample(groups[::-1]), sign=-1.0)


@_SETTINGS
@given(groups=_groups())
def test_hines_hines_leaves_n_minus_2k_denominator_df(groups):
    sample = _sample(groups)
    try:
        result = levene_test(sample, "median", "hines-hines")
    except DegenerateDataError:
        return
    assert result.df1 == sample.k - 1
    assert result.df2 == sample.total - 2 * sample.k


_ANY = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@_SETTINGS
@given(groups=_groups(values=_ANY))
# Spreads so small that a square underflows: the Welch weights overflow,
# the trend's standard error and the kurtosis denominator reach zero.
@example(groups=[[0.0, 0.0, 1.0], [0.0, 0.0, 1.2238356684820437e-161]])
@example(groups=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.2238356684820437e-161]])
@example(groups=[[1.622387717713725e-82, 0.0, 0.0, 1.0042133910386997e-174], [-3.2752147365822836e-101, 0.0, 0.0]])
def test_every_p_value_lies_in_the_unit_interval(groups):
    sample = _sample(groups)
    p_values = {}
    for name, test in _OMNIBUS_TESTS.items():
        result = _outcome(test, sample)
        if result is not None:
            p_values[name] = [result.p_value]
    for center in CENTERS:
        trend = _outcome(lambda s: trend_test(s, None, center), sample)
        if trend is not None:
            p_values[f"trend:{center}"] = [trend.p_value(side) for side in SIDES]
        adaptive = _outcome(lambda s: adaptive_anova(s, AdaptiveConfig(preliminary_center=center)), sample)
        if adaptive is not None:
            p_values[f"adaptive:{center}"] = [adaptive.preliminary.p_value, adaptive.final.p_value]
    for name, ps in p_values.items():
        assert all(0.0 <= p <= 1.0 for p in ps), f"{name}: {ps!r}"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_THREE_BY_FIVE = [[1, 2, 4, 7, 3], [2, 5, 1, 9, 4.5], [3, 8, 2.5, 6, 1]]


def _finite_or_too_large(run, sample):
    """``run(sample)``, or None when the data are degenerate or too large for a float."""
    try:
        return run(sample)
    except DegenerateDataError:
        return None
    except ValidationError as exc:
        assert "too large" in str(exc), f"undocumented ValidationError: {exc}"
        return None


@_SETTINGS
@given(groups=_groups(values=_FINITE))
# A deviation spread too large to square once made the trend test's
# standard error inf, its z -0.0 and its two-sided p exactly 1.
@example(groups=[[1e160 * x for x in g] for g in _THREE_BY_FIVE])
# Fourth powers of deviations near 1e80 overflowed in the kurtosis.
@example(groups=[[1e80 * x for x in g] for g in _THREE_BY_FIVE])
# A mean or a median of values near the float maximum once overflowed to inf
# with numpy's RuntimeWarning instead of raising the "too large" error.
@example(groups=[[1.7e308, 1.7e308, 1.0], [1.7e308, 1.7e308, 1.7e308, 1.0], [1.0, 2.0, 4.0]])
# So did the sqrt(2) fold of the Hines-Hines correction.
@example(groups=[[-1.7e308, 1.7e308, -1.7e308, 1.7e308], [1.0, 2.0, 3.0, 5.0]])
def test_values_of_any_magnitude_give_finite_results_or_a_documented_error(groups):
    sample = _sample(groups)
    for name, test in _OMNIBUS_TESTS.items():
        result = _finite_or_too_large(test, sample)
        if result is not None:
            assert math.isfinite(result.statistic) and 0.0 <= result.p_value <= 1.0, f"{name}: {result!r}"
    for center in CENTERS:
        trend = _finite_or_too_large(lambda s: trend_test(s, None, center), sample)
        if trend is not None:
            finite = math.isfinite(trend.z_statistic) and math.isfinite(trend.std_error)
            assert finite and all(0.0 <= trend.p_value(side) <= 1.0 for side in SIDES), f"trend:{center}: {trend!r}"
        config = AdaptiveConfig(preliminary_center=center)
        adaptive = _finite_or_too_large(lambda s: adaptive_anova(s, config), sample)
        for stage in () if adaptive is None else (adaptive.preliminary, adaptive.final):
            assert math.isfinite(stage.statistic) and 0.0 <= stage.p_value <= 1.0, f"adaptive:{center}: {stage!r}"
