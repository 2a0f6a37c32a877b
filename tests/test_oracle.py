"""Every statistic against its defining formula in 60-digit arithmetic, at common scales 2**-1000 to 2**1000.

The oracle reads the same doubles the package does, converts each one
exactly, and evaluates the textbook formula with mpmath: it shares no
code with the package or with scipy, so it also judges the magnitudes
where float64 code like scipy's loses digits.  A power of two scales
every double exactly, so the data at each scale are the same sample; a
statistic must come within 1e-11 relative of the oracle at every one.
"""

import math

import mpmath
import numpy as np
import pytest
from mpmath import fsum, mpf

from vartests import (
    AdaptiveConfig,
    DegenerateDataError,
    GroupedSample,
    adaptive_anova,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    kurtosis_estimate,
    levene_test,
    trend_test,
    welch_anova,
)

RTOL = 1e-11
EXPONENTS = (-1000, -999, -787, -600, -538, -300, -201, -200, -162, -100, -1, 0, 1, 100, 162, 200, 201, 300, 538,
             600, 787, 999, 1000)


def _samples():
    """Normal groups with unequal spreads: the example that once gave F = 0 at 1e-162, and ragged layouts."""
    rng = np.random.default_rng(0)
    yield [rng.normal(0.0, s, size=8) for s in (1.0, 1.5, 2.0)]
    rng = np.random.default_rng(20261020)
    for sizes in ((5, 9, 13), (6, 6, 7, 12), (4, 11, 7, 8, 10)):
        spreads = 2.0 ** rng.uniform(-1.5, 1.5, size=len(sizes))
        means = rng.normal(0.0, 1.0, size=len(sizes))
        yield [m + s * rng.standard_normal(n) for m, s, n in zip(means, spreads, sizes)]


SAMPLES = tuple(_samples())


# The oracle: each formula on lists of mpf.


def _mean(xs):
    return fsum(xs) / len(xs)


def _center(xs, kind):
    s = sorted(xs)
    n = len(s)
    if kind == "mean":
        return _mean(s)
    if kind == "median":
        return (s[(n - 1) // 2] + s[n // 2]) / 2
    cut = math.floor(0.25 * n)
    return _mean(s[cut : n - cut])


def _deviations(groups, kind):
    return [[abs(x - _center(g, kind)) for x in g] for g in groups]


def _hines_hines(groups):
    """Median deviations less one pseudo-observation per group: an odd group's zero, an even group's tied pair folded."""
    corrected = []
    for z in groups:
        s = sorted(z)
        corrected.append(s[1:] if len(s) % 2 else [mpmath.sqrt(2) * s[0], *s[2:]])
    return corrected


def _obrien(groups):
    return [[d / mpmath.sqrt(1 - mpf(1) / len(z)) for d in z] for z in groups]


def _sum_sq(g):
    m = _mean(g)
    return fsum((x - m) ** 2 for x in g)


def _one_way_f(groups):
    k, total = len(groups), sum(len(g) for g in groups)
    grand = fsum(fsum(g) for g in groups) / total
    between = fsum(len(g) * (_mean(g) - grand) ** 2 for g in groups)
    within = fsum(_sum_sq(g) for g in groups)
    return (between / (k - 1)) / (within / (total - k))


def _welch(groups):
    k = len(groups)
    weights = [len(g) / (_sum_sq(g) / (len(g) - 1)) for g in groups]
    weight_sum = fsum(weights)
    grand = fsum(w * _mean(g) for w, g in zip(weights, groups)) / weight_sum
    between = fsum(w * (_mean(g) - grand) ** 2 for w, g in zip(weights, groups)) / (k - 1)
    imbalance = fsum((1 - w / weight_sum) ** 2 / (len(g) - 1) for w, g in zip(weights, groups))
    return between / (1 + mpf(2 * (k - 2)) / (k * k - 1) * imbalance)


def _bartlett(groups):
    k, total = len(groups), sum(len(g) for g in groups)
    variances = [_sum_sq(g) / (len(g) - 1) for g in groups]
    pooled = fsum((len(g) - 1) * v for g, v in zip(groups, variances)) / (total - k)
    m = (total - k) * mpmath.log(pooled) - fsum((len(g) - 1) * mpmath.log(v) for g, v in zip(groups, variances))
    c = 1 + (fsum(mpf(1) / (len(g) - 1) for g in groups) - mpf(1) / (total - k)) / (3 * (k - 1))
    return m / c


def _kurtosis(groups):
    total = sum(len(g) for g in groups)
    fourth = fsum((x - _mean(g)) ** 4 for g in groups for x in g)
    return total * fourth / fsum(_sum_sq(g) for g in groups) ** 2


def _trend_z(groups, scores):
    k, total = len(groups), sum(len(z) for z in groups)
    w_bar = fsum(len(z) * w for z, w in zip(groups, scores)) / total
    denom = fsum(len(z) * (w - w_bar) ** 2 for z, w in zip(groups, scores))
    beta = fsum(len(z) * (w - w_bar) * _mean(z) for z, w in zip(groups, scores)) / denom
    within = fsum(_sum_sq(z) for z in groups)
    return beta / mpmath.sqrt(within / (total - k) / denom)


_ORACLE = {
    "anova": _one_way_f,
    "welch": _welch,
    "bartlett": _bartlett,
    "box-anderson": lambda g: _bartlett(g) * 2 / (_kurtosis(g) - 1),
    "kurtosis": _kurtosis,
    "levene:mean": lambda g: _one_way_f(_deviations(g, "mean")),
    "levene:median": lambda g: _one_way_f(_deviations(g, "median")),
    "levene:trimmed": lambda g: _one_way_f(_deviations(g, "trimmed")),
    "levene:median:hines-hines": lambda g: _one_way_f(_hines_hines(_deviations(g, "median"))),
    "levene:median:obrien": lambda g: _one_way_f(_obrien(_deviations(g, "median"))),
    **{f"trend:{kind}": (lambda g, kind=kind: _trend_z(_deviations(g, kind), range(1, len(g) + 1)))
       for kind in ("mean", "median", "trimmed")},
}

_PACKAGE = {
    "anova": lambda s: anova_f(s).statistic,
    "welch": lambda s: welch_anova(s).statistic,
    "bartlett": lambda s: bartlett_m(s).statistic,
    "box-anderson": lambda s: box_anderson_b3(s).statistic,
    "kurtosis": kurtosis_estimate,
    "levene:mean": lambda s: levene_test(s, "mean").statistic,
    "levene:median": lambda s: levene_test(s, "median").statistic,
    "levene:trimmed": lambda s: levene_test(s, "trimmed").statistic,
    "levene:median:hines-hines": lambda s: levene_test(s, "median", "hines-hines").statistic,
    "levene:median:obrien": lambda s: levene_test(s, "median", "obrien").statistic,
    **{f"trend:{kind}": (lambda s, kind=kind: trend_test(s, None, kind).z_statistic)
       for kind in ("mean", "median", "trimmed")},
}


def _oracle(groups):
    with mpmath.workdps(60):
        exact = [[mpf(float(x)) for x in g] for g in groups]
        return {name: float(formula(exact)) for name, formula in _ORACLE.items()}


@pytest.mark.parametrize("exponent", EXPONENTS)
@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_every_statistic_is_the_60_digit_value_of_its_formula(index, exponent):
    groups = [np.ldexp(g, exponent) for g in SAMPLES[index]]
    sample = GroupedSample(tuple((f"g{i + 1}", g) for i, g in enumerate(groups)))
    oracle = _oracle(groups)
    ours = {name: statistic(sample) for name, statistic in _PACKAGE.items()}
    # The adaptive procedure's final statistic is the classic or the Welch F, as its preliminary test chose.
    adaptive = adaptive_anova(sample, AdaptiveConfig())
    ours["adaptive"] = adaptive.final.statistic
    oracle["adaptive"] = oracle["welch" if adaptive.chosen_branch == "welch" else "anova"]
    for name, value in oracle.items():
        assert math.isclose(ours[name], value, rel_tol=RTOL), f"{name} at 2**{exponent}: {ours[name]!r}, oracle {value!r}"


@pytest.mark.parametrize("scale", [1e-150, 1e-153, 1e-155, 1e-158, 1e-160, 1e-200])
def test_a_group_far_smaller_than_the_others_gives_the_formulas_value_or_is_degenerate(scale):
    # Below about 1e-154 that group's sum of squares is subnormal: the digits
    # that Bartlett's log and Welch's weight need are gone, so these raise.
    groups = [SAMPLES[0][0] * scale, *SAMPLES[0][1:]]
    sample = GroupedSample(tuple((f"g{i + 1}", g) for i, g in enumerate(groups)))
    oracle = _oracle(groups)
    degenerate = set()
    for name, statistic in _PACKAGE.items():
        try:
            value = statistic(sample)
        except DegenerateDataError as exc:
            assert "group 'g1'" in str(exc)
            degenerate.add(name)
            continue
        assert math.isclose(value, oracle[name], rel_tol=RTOL), f"{name} at {scale}: {value!r}, oracle {oracle[name]!r}"
    assert degenerate == ({"welch", "bartlett", "box-anderson"} if scale < 1e-154 else set())
