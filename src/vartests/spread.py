"""Tests for equality of spread across groups.

``levene_test`` covers the whole Levene family: mean, median
(Brown-Forsythe) or trimmed-mean centers, optionally repaired by the
Hines-Hines zero-deviation correction or the O'Brien rescaling.
``bartlett_m`` and ``box_anderson_b3`` are the likelihood-ratio
alternative and its kurtosis-robust adjustment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import DegenerateDataError, KurtosisError, ValidationError
from .numerics import chi_sq_sf, f_sf
from .samples import CenterKind, DeviationSet, GroupedSample, as_center_kind, deviations, hines_hines_correct, obrien_scale
from .samples import _finite_sum, _group_moments, _nonzero_variances, _require_group_size, _sum_sq_is_zero

__all__ = [
    "TestResult",
    "CORRECTIONS",
    "as_correction",
    "levene_test",
    "bartlett_m",
    "kurtosis_estimate",
    "box_anderson_b3",
]

CORRECTIONS = ("none", "hines-hines", "obrien")


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test: statistic, reference df, and p-value.

    ``df2`` is None for chi-squared reference distributions.  ``center``
    and ``correction`` are set by deviation-based tests; ``details``
    carries method-specific extras (e.g. Bartlett's uncorrected M).
    """

    method: str
    statistic: float
    df1: float
    df2: float | None
    p_value: float
    center: CenterKind | None = None
    correction: str | None = None
    details: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value!r} outside [0, 1]")
        if not self.statistic >= 0.0:
            raise ValidationError(f"statistic {self.statistic!r} is negative")


def as_correction(correction: Union[str, None]) -> str:
    """Normalize a correction name; ``None`` means no correction."""
    if correction is None:
        return "none"
    if correction in CORRECTIONS:
        return correction
    raise ValidationError(
        f"unknown correction {correction!r}; expected one of {', '.join(CORRECTIONS)}"
    )


def _analyzed_deviations(sample: GroupedSample, kind: CenterKind, correction: str) -> DeviationSet:
    """The deviations a Levene test with this center and correction analyzes."""
    dev = deviations(sample, kind)
    if correction == "hines-hines":
        return hines_hines_correct(dev)
    if correction == "obrien":
        return obrien_scale(dev)
    return dev


def _one_way_f(sample: GroupedSample, scale: float) -> tuple[float, float, float]:
    """One-way fixed-effects F over the groups, whose largest magnitude is ``scale``: (F, df1, df2)."""
    k = sample.k
    sizes, means, sums_sq = _group_moments(sample)
    total = sum(sizes)
    if total <= k:
        raise DegenerateDataError(
            f"need more observations than groups to estimate within-group spread (N={total}, k={k})"
        )
    grand = sum(n * m for n, m in zip(sizes, means)) / total
    squares = (n * (m - grand) ** 2 for n, m in zip(sizes, means))
    between = _finite_sum(squares, "the between-groups sum of squares")
    within = sum(sums_sq)
    if _sum_sq_is_zero(within, scale, total):
        raise DegenerateDataError(
            f"no within-group spread in any group (groups {', '.join(repr(l) for l in sample.labels)}): "
            "the F statistic is 0/0"
        )
    df1 = float(k - 1)
    df2 = float(total - k)
    return (df2 / df1) * (between / within), df1, df2


def levene_test(
    sample: GroupedSample,
    center: Union[CenterKind, str] = "median",
    correction: Union[str, None] = None,
) -> TestResult:
    """Levene-family test for equal spread across groups.

    Observations are replaced by absolute deviations from their group's
    center (mean for the classical test, median for Brown-Forsythe,
    trimmed mean for heavy-tailed data) and compared by a one-way F test
    with k - 1 and N' - k degrees of freedom, where N' discounts any
    pseudo-observations removed by the requested correction.
    """
    kind = as_center_kind(center)
    corr = as_correction(correction)
    _require_group_size(sample, 3 if corr == "hines-hines" else 2)
    if corr == "hines-hines" and kind.name != "median":
        raise ValidationError("the Hines-Hines correction applies to median centers only")
    dev = _analyzed_deviations(sample, kind, corr)
    statistic, df1, df2 = _one_way_f(dev, max(float(z.max()) for z in dev.values))
    return TestResult(
        method="levene",
        statistic=statistic,
        df1=df1,
        df2=df2,
        p_value=f_sf(statistic, df1, df2),
        center=kind,
        correction=corr,
    )


def bartlett_m(sample: GroupedSample) -> TestResult:
    """Bartlett's likelihood-ratio test for equal group variances.

    The corrected statistic M/C is referred to chi-squared with k - 1
    df.  Exact under normality but notoriously sensitive to kurtosis;
    see ``box_anderson_b3`` for the robustified version.  The details
    mapping carries the uncorrected ``m_raw`` and the Bartlett
    correction factor ``c_factor``.
    """
    k = sample.k
    sizes, _, variances = _nonzero_variances(sample)
    total = sum(sizes)
    within = _finite_sum(((n - 1) * v for n, v in zip(sizes, variances)), "the pooled sum of squares")
    pooled = within / (total - k)
    m_raw = (total - k) * np.log(pooled) - sum((n - 1) * np.log(v) for n, v in zip(sizes, variances))
    m_raw = max(float(m_raw), 0.0)  # clamp fp residue when variances are identical
    c_factor = 1.0 + (sum(1.0 / (n - 1) for n in sizes) - 1.0 / (total - k)) / (3.0 * (k - 1))
    statistic = m_raw / c_factor
    return TestResult(
        method="bartlett",
        statistic=statistic,
        df1=float(k - 1),
        df2=None,
        p_value=chi_sq_sf(statistic, k - 1),
        details={"m_raw": m_raw, "c_factor": c_factor},
    )


def kurtosis_estimate(sample: GroupedSample) -> float:
    """Pooled kurtosis: N * sum(d^4) / (sum(d^2))^2 over group-mean deviations.

    Not excess kurtosis -- normal data give values near 3.
    """
    # Cancellation noise in the deviations is proportional to the raw magnitudes.
    scale = max(float(np.abs(arr).max()) for arr in sample.values)
    exponent = math.frexp(scale)[1]
    if abs(exponent) > 200:
        # Fourth powers could overflow or underflow.  The ratio is
        # scale-free, and scaling by a power of two is exact.
        scaled = tuple((label, np.ldexp(arr, -exponent)) for label, arr in sample.groups)
        return kurtosis_estimate(GroupedSample(scaled))
    _, means, sums_sq = _group_moments(sample)
    sum_sq = sum(sums_sq)
    if _sum_sq_is_zero(sum_sq, scale, sample.total):
        raise DegenerateDataError("kurtosis is undefined: every observation equals its group mean")
    sum_quad = sum(float(np.sum((arr - m) ** 4)) for arr, m in zip(sample.values, means))
    return sample.total * sum_quad / sum_sq**2


def box_anderson_b3(sample: GroupedSample) -> TestResult:
    """Bartlett's test with the Box-Anderson kurtosis correction.

    Rescales the corrected Bartlett statistic by 2 / (kurtosis - 1),
    which restores the chi-squared reference under non-normal (in
    particular heavy-tailed) data.  Requires the pooled kurtosis
    estimate to exceed 1; values at or below 1 raise ``KurtosisError``.
    The details mapping carries the Bartlett pieces and the kurtosis.
    """
    bartlett = bartlett_m(sample)
    kurt = kurtosis_estimate(sample)
    if kurt <= 1.0:
        raise KurtosisError(
            f"pooled kurtosis estimate {kurt!r} <= 1: the Box-Anderson factor 2/(kurtosis - 1) is undefined"
        )
    statistic = bartlett.statistic * 2.0 / (kurt - 1.0)
    return TestResult(
        method="box-anderson",
        statistic=statistic,
        df1=bartlett.df1,
        df2=None,
        p_value=chi_sq_sf(statistic, bartlett.df1),
        details={
            "bartlett_statistic": bartlett.statistic,
            "m_raw": bartlett.details["m_raw"],
            "c_factor": bartlett.details["c_factor"],
            "kurtosis": kurt,
        },
    )
