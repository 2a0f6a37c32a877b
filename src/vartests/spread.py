"""Tests for equality of spread across groups.

``levene_test`` covers the whole Levene family: mean, median
(Brown-Forsythe) or trimmed-mean centers, optionally repaired by the
Hines-Hines zero-deviation correction or the O'Brien rescaling.
``bartlett_m`` and ``box_anderson_b3`` are the likelihood-ratio
alternative and its kurtosis-robust adjustment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, KurtosisError, ValidationError
from .numerics import chi_sq_sf, f_sf
from .samples import CenterKind, GroupedSample, as_center_kind
from .samples import _centered, _check_correction, _flag, _group_moments, _hines_hines, _magnitude, _minus, _nonzero_variances
from .samples import _obrien, _one_replicate, _require_group_size, _rescaled, _square, _sum_sq_is_zero

__all__ = [
    "TestResult", "CORRECTIONS", "as_correction", "levene_test", "bartlett_m", "kurtosis_estimate",
    "box_anderson_b3",
]

# Each correction's kernel over the groups of deviations (see ``samples``).
_CORRECTED = {"none": lambda groups, labels, faults: groups, "hines-hines": _hines_hines, "obrien": _obrien}
CORRECTIONS = tuple(_CORRECTED)
# The smallest group a Levene test takes with each correction: Hines-Hines drops a deviation per group.
_MIN_GROUP_SIZE = {"none": 2, "hines-hines": 3, "obrien": 2}


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


def _one_way_f(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> tuple[object, float, float]:
    """One-way fixed-effects F over the groups (the kernel of ``anova_f`` and ``levene_test``): (F, df1, df2)."""
    k = len(groups)
    sizes = [arr.shape[-1] for arr in groups]
    means, _, within = _group_moments(groups)
    total = sum(sizes)
    message = f"need more observations than groups to estimate within-group spread (N={total}, k={k})"
    _flag(faults, total <= k, DegenerateDataError, message)
    grand = sum(n * m for n, m in zip(sizes, means)) / total
    between = sum(n * _square(m - grand) for n, m in zip(sizes, means))
    named = ", ".join(map(repr, labels[:5])) + (f", ... ({len(labels)} in all)" if len(labels) > 5 else "")
    message = f"no within-group spread in any group (groups {named}): the F statistic is 0/0"
    _flag(faults, _sum_sq_is_zero(within, _magnitude(groups), total), DegenerateDataError, message)
    df1 = float(k - 1)
    df2 = float(total - k)
    return (df2 / df1) * (between / within), df1, df2


def _levene_f(groups: Sequence[np.ndarray], labels: Sequence[str], correction: str, faults: list) -> tuple:
    """Levene's F over the groups of deviations (the kernel of ``levene_test``): the correction, then ``_one_way_f``."""
    return _one_way_f(_CORRECTED[correction](groups, labels, faults), labels, faults)


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
    _require_group_size(sample, _MIN_GROUP_SIZE[corr])
    _check_correction(kind, corr)
    statistic, df1, df2 = _one_replicate(_levene_f, _centered(_rescaled(sample.values)[0], kind)[1], sample.labels, corr)
    statistic = float(statistic)
    return TestResult("levene", statistic, df1, df2, f_sf(statistic, df1, df2), center=kind, correction=corr)


def _bartlett(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> tuple[object, object, float]:
    """Bartlett's corrected statistic M/C, the uncorrected M and the correction factor C."""
    k = len(groups)
    sizes = [arr.shape[-1] for arr in groups]
    _, variances = _nonzero_variances(groups, labels, faults)
    total = sum(sizes)
    within = sum((n - 1) * v for n, v in zip(sizes, variances))
    pooled = within / (total - k)
    m_raw = (total - k) * np.log(pooled) - sum((n - 1) * np.log(v) for n, v in zip(sizes, variances))
    m_raw = np.maximum(m_raw, 0.0)  # clamp fp residue when variances are identical
    c_factor = 1.0 + (sum(1.0 / (n - 1) for n in sizes) - 1.0 / (total - k)) / (3.0 * (k - 1))
    return m_raw / c_factor, m_raw, c_factor


def _kurtosis(groups: Sequence[np.ndarray], faults: list):
    """Pooled kurtosis of the groups (see ``kurtosis_estimate``)."""
    total = sum(arr.shape[-1] for arr in groups)
    means, _, sum_sq = _group_moments(groups)
    # Cancellation noise in the deviations is proportional to the raw magnitudes.
    zero = _sum_sq_is_zero(sum_sq, _magnitude(groups), total)
    _flag(faults, zero, DegenerateDataError, "kurtosis is undefined: every observation equals its group mean")
    # An array's ** 4 is one numpy power, alike for one replicate and for a block.
    sum_quad = sum((_minus(arr, m) ** 4).sum(axis=-1) for arr, m in zip(groups, means))
    return total * sum_quad / _square(sum_sq)


def _box_anderson(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> tuple:
    """The Box-Anderson statistic with its Bartlett pieces and the kurtosis: (B3, M/C, M, C, kurtosis)."""
    bartlett, m_raw, c_factor = _bartlett(groups, labels, faults)
    kurt = _kurtosis(groups, faults)
    low = kurt <= 1.0
    if low.any():  # the message quotes the first flagged row's estimate
        estimate = float(np.asarray(kurt)[low][0])
        message = f"pooled kurtosis estimate {estimate!r} <= 1: the Box-Anderson factor 2/(kurtosis - 1) is undefined"
        _flag(faults, low, KurtosisError, message)
    return bartlett * 2.0 / (kurt - 1.0), bartlett, m_raw, c_factor, kurt


def bartlett_m(sample: GroupedSample) -> TestResult:
    """Bartlett's likelihood-ratio test for equal group variances.

    The corrected statistic M/C is referred to chi-squared with k - 1
    df.  Exact under normality but notoriously sensitive to kurtosis;
    see ``box_anderson_b3`` for the robustified version.  The details
    mapping carries the uncorrected ``m_raw`` and the Bartlett
    correction factor ``c_factor``.
    """
    _require_group_size(sample, 2)
    statistic, m_raw, c_factor = _one_replicate(_bartlett, _rescaled(sample.values)[0], sample.labels)
    statistic = float(statistic)
    details = {"m_raw": float(m_raw), "c_factor": c_factor}
    return TestResult("bartlett", statistic, float(sample.k - 1), None, chi_sq_sf(statistic, sample.k - 1), details=details)


def kurtosis_estimate(sample: GroupedSample) -> float:
    """Pooled kurtosis: N * sum(d^4) / (sum(d^2))^2 over group-mean deviations.

    Not excess kurtosis -- normal data give values near 3.
    """
    _require_group_size(sample)
    return float(_one_replicate(_kurtosis, _rescaled(sample.values)[0]))


def box_anderson_b3(sample: GroupedSample) -> TestResult:
    """Bartlett's test with the Box-Anderson kurtosis correction.

    Rescales the corrected Bartlett statistic by 2 / (kurtosis - 1),
    which restores the chi-squared reference under non-normal (in
    particular heavy-tailed) data.  Requires the pooled kurtosis
    estimate to exceed 1; values at or below 1 raise ``KurtosisError``.
    The details mapping carries the Bartlett pieces and the kurtosis.
    """
    _require_group_size(sample, 2)
    statistic, bartlett, m_raw, c_factor, kurt = _one_replicate(_box_anderson, _rescaled(sample.values)[0], sample.labels)
    statistic, df1 = float(statistic), float(sample.k - 1)
    details = {"bartlett_statistic": float(bartlett), "m_raw": float(m_raw), "c_factor": c_factor, "kurtosis": float(kurt)}
    return TestResult("box-anderson", statistic, df1, None, chi_sq_sf(statistic, df1), details=details)
