"""Tests for equality of group means, with and without equal variances.

``anova_f`` is the classic one-way fixed-effects F; ``welch_anova`` is
the variance-weighted version that stays valid under heteroscedasticity;
``adaptive_anova`` picks between them by running a preliminary spread
test first, trading a little size inflation under homogeneity for
protection when group variances and sizes are mismatched.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DegenerateDataError, ValidationError, _converted
from .numerics import f_sf
from .samples import CenterKind, GroupedSample, MEDIAN, as_center_kind
from .samples import _flag, _nonzero_variances, _one_replicate, _require_group_size, _rescaled, _square
from .spread import TestResult, _one_way_f, levene_test

__all__ = [
    "PreliminaryLevelWarning", "AdaptiveConfig", "AdaptiveResult", "anova_f", "welch_anova",
    "adaptive_anova",
]


class PreliminaryLevelWarning(UserWarning):
    """The preliminary test level is outside the range with empirical support."""


_SUPPORTED_LEVELS = (0.15, 0.25)


@dataclass(frozen=True)
class AdaptiveConfig:
    """Configuration of the preliminary spread test inside ``adaptive_anova``.

    The defaults -- a median-centered Levene test at the 15% level, no
    correction -- are the combination with the best size/power record.
    Levels outside [0.15, 0.25] are allowed but draw a
    ``PreliminaryLevelWarning`` that names the caller's line; in
    particular ``preliminary_level=0`` turns the procedure into the
    plain classic ANOVA.  The level is stored as a float, -0.0 as 0.0;
    the center is a ``CenterKind`` or its label spelling (``trimmed=0.1``).
    """

    preliminary_level: float = 0.15
    preliminary_center: CenterKind = MEDIAN

    def __post_init__(self) -> None:
        level = _converted(float, self.preliminary_level, "preliminary level") + 0.0  # -0.0 is 0.0: one label
        if not 0.0 <= level < 1.0:
            raise ValidationError(f"preliminary level must lie in [0, 1), got {level!r}")
        object.__setattr__(self, "preliminary_level", level)
        object.__setattr__(self, "preliminary_center", as_center_kind(self.preliminary_center))
        low, high = _SUPPORTED_LEVELS
        if not low <= level <= high:
            warnings.warn(
                f"preliminary level {level} is outside [{low}, {high}], the range "
                "with empirical support for the adaptive procedure",
                PreliminaryLevelWarning,
                stacklevel=3,  # past the dataclass's __init__, to the line that made the config
            )


@dataclass(frozen=True)
class AdaptiveResult:
    """Both stages of the adaptive procedure and which branch was taken."""

    preliminary: TestResult
    chosen_branch: str  # "classic" or "welch"
    final: TestResult
    config: AdaptiveConfig = field(default_factory=AdaptiveConfig)


def anova_f(sample: GroupedSample) -> TestResult:
    """Classic one-way fixed-effects ANOVA F test for equal group means."""
    _require_group_size(sample)
    statistic, df1, df2 = _one_replicate(_one_way_f, _rescaled(sample.values)[0], sample.labels)
    statistic = float(statistic)
    return TestResult("anova", statistic, df1, df2, f_sf(statistic, df1, df2))


def _welch(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> tuple[object, float, object]:
    """Welch's statistic over the groups: (F, df1, df2), where df2 varies by row."""
    k = len(groups)
    sizes = [arr.shape[-1] for arr in groups]
    means, variances = _nonzero_variances(groups, labels, faults)
    weights = [n / v for n, v in zip(sizes, variances)]
    weight_sum = sum(weights)
    message = "group variances are so small that the Welch weights n/s^2 overflow"
    _flag(faults, np.isinf(weight_sum), DegenerateDataError, message)
    grand = sum(w * m for w, m in zip(weights, means)) / weight_sum
    imbalance = sum(_square(1.0 - w / weight_sum) / (n - 1) for w, n in zip(weights, sizes))
    numerator = sum(w * _square(m - grand) for w, m in zip(weights, means)) / (k - 1)
    denominator = 1.0 + 2.0 * (k - 2) / (k**2 - 1.0) * imbalance
    return numerator / denominator, float(k - 1), (k**2 - 1.0) / (3.0 * imbalance)


def welch_anova(sample: GroupedSample) -> TestResult:
    """Welch's heteroscedasticity-robust one-way test for equal means.

    Group means are weighted by n_i / s_i^2; the statistic is referred
    to an F distribution whose denominator degrees of freedom are fitted
    from the weight imbalance.  With two groups this reduces exactly to
    the squared Welch t statistic with Welch-Satterthwaite df.
    """
    _require_group_size(sample, 2)
    statistic, df1, df2 = _one_replicate(_welch, _rescaled(sample.values)[0], sample.labels)
    statistic, df2 = float(statistic), float(df2)
    return TestResult("welch", statistic, df1, df2, f_sf(statistic, df1, df2))


def adaptive_anova(sample: GroupedSample, config: AdaptiveConfig | None = None) -> AdaptiveResult:
    """Two-stage test for equal means: screen variances, then pick the test.

    Runs the configured preliminary Levene-type test; if it rejects at
    ``preliminary_level`` (strictly ``p < level``) the Welch test
    supplies the final answer, otherwise the classic ANOVA does.
    """
    _require_group_size(sample, 2)
    if config is None:
        config = AdaptiveConfig()
    if not isinstance(config, AdaptiveConfig):
        raise ValidationError(f"config must be an AdaptiveConfig, got {config!r}")
    preliminary = levene_test(sample, config.preliminary_center)
    if preliminary.p_value < config.preliminary_level:
        branch = "welch"
        final = welch_anova(sample)
    else:
        branch = "classic"
        final = anova_f(sample)
    return AdaptiveResult(preliminary=preliminary, chosen_branch=branch, final=final, config=config)
