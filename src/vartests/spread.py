"""Tests for equality of spread across groups.

``levene_test`` covers the whole Levene family: mean, median
(Brown-Forsythe) or trimmed-mean centers, optionally repaired by the
Hines-Hines zero-deviation correction or the O'Brien rescaling.
``bartlett_m`` and ``box_anderson_b3`` are the likelihood-ratio
alternative and its kurtosis-robust adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .errors import DegenerateDataError, KurtosisError, ValidationError
from .numerics import chi_sq_sf, f_sf
from .samples import (
    CenterKind,
    GroupedSample,
    _sum_sq_is_zero,
    as_center_kind,
    deviations,
    hines_hines_correct,
    obrien_scale,
)

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


def _group_stats(arrays) -> tuple[list[int], list[float], float, int]:
    sizes = [int(a.size) for a in arrays]
    means = [float(a.mean()) for a in arrays]
    total = sum(sizes)
    grand = sum(n * m for n, m in zip(sizes, means)) / total
    return sizes, means, grand, total


def _one_way_f(arrays, scale: float, labels=None) -> tuple[float, float, float]:
    """One-way fixed-effects F over the given groups: (F, df1, df2)."""
    k = len(arrays)
    sizes, means, grand, total = _group_stats(arrays)
    if total <= k:
        raise DegenerateDataError(
            f"need more observations than groups to estimate within-group spread (N={total}, k={k})"
        )
    between = sum(n * (m - grand) ** 2 for n, m in zip(sizes, means))
    within = sum(float(np.sum((a - m) ** 2)) for a, m in zip(arrays, means))
    if _sum_sq_is_zero(within, scale, total):
        where = "" if labels is None else f" (groups {', '.join(repr(l) for l in labels)})"
        raise DegenerateDataError(
            f"no within-group spread in any group{where}: the F statistic is 0/0"
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
    minimum = 3 if corr == "hines-hines" else 2
    for label, arr in sample.groups:
        if arr.size < minimum:
            raise ValidationError(
                f"group {label!r} has size {arr.size}; this test needs at least {minimum}"
            )
    if corr == "hines-hines" and kind.name != "median":
        raise ValidationError("the Hines-Hines correction applies to median centers only")
    dev = deviations(sample, kind)
    if corr == "hines-hines":
        dev = hines_hines_correct(dev)
    elif corr == "obrien":
        dev = obrien_scale(dev)
    scale = max(float(z.max()) for z in dev.values)
    statistic, df1, df2 = _one_way_f(dev.values, scale, dev.labels)
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
    variances = []
    for label, arr in sample.groups:
        if arr.size < 2:
            raise ValidationError(f"group {label!r} has size {arr.size}; variances need at least 2")
        v = float(arr.var(ddof=1))
        if _sum_sq_is_zero(v * (arr.size - 1), float(np.abs(arr).max()), arr.size):
            raise DegenerateDataError(f"group {label!r} has zero sample variance")
        variances.append(v)
    sizes = sample.sizes
    total = sample.total
    pooled = sum((n - 1) * v for n, v in zip(sizes, variances)) / (total - k)
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
    sum_sq = 0.0
    sum_quad = 0.0
    scale = 0.0
    for _, arr in sample.groups:
        d = arr - arr.mean()
        sum_sq += float(np.sum(d**2))
        sum_quad += float(np.sum(d**4))
        # Cancellation noise in d is proportional to the raw magnitudes.
        scale = max(scale, float(np.abs(arr).max()))
    if _sum_sq_is_zero(sum_sq, scale, sample.total):
        raise DegenerateDataError("kurtosis is undefined: every observation equals its group mean")
    if sum_sq**2 == 0.0:
        raise DegenerateDataError(
            f"kurtosis is undefined: the sum of squared deviations {sum_sq!r} underflows when squared"
        )
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
