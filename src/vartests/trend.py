"""Test for a monotone trend in spread across ordered groups.

Instead of asking whether group spreads differ at all, this regresses
the group mean absolute deviations on user-supplied scores (dose
levels, time points, or plain ranks) and refers the standardized slope
to the normal distribution.  Against ordered alternatives this focuses
the k - 1 degrees of freedom of the omnibus test onto a single
directional contrast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import DegenerateDataError, ValidationError
from .numerics import std_normal_sf
from .samples import CenterKind, GroupedSample, as_center_kind, deviations
from .samples import _finite_sum, _group_moments, _require_group_size, _sum_sq_is_zero

__all__ = ["SIDES", "as_side", "ScoreSet", "TrendResult", "trend_test"]

SIDES = ("increasing", "decreasing", "two-sided")


def as_side(side: str) -> str:
    """Check that ``side`` names one of the alternatives in ``SIDES``."""
    if side not in SIDES:
        raise ValidationError(f"unknown side {side!r}; expected one of {', '.join(SIDES)}")
    return side


@dataclass(frozen=True)
class ScoreSet:
    """Ordered group scores for a trend contrast.

    Scores must be finite and strictly distinct: tied scores would make
    the contrast direction ambiguous.
    """

    w: tuple[float, ...]

    def __post_init__(self) -> None:
        w = tuple(float(value) for value in self.w)
        if len(w) < 2:
            raise ValidationError(f"need scores for at least 2 groups, got {len(w)}")
        if not all(math.isfinite(value) for value in w):
            raise ValidationError("scores must be finite")
        if len(set(w)) != len(w):
            raise ValidationError(f"scores must be distinct, got {w!r}")
        object.__setattr__(self, "w", w)

    @classmethod
    def linear(cls, k: int) -> "ScoreSet":
        """The default scores 1, 2, ..., k."""
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise ValidationError(f"k must be an integer >= 2, got {k!r}")
        return cls(tuple(float(i) for i in range(1, k + 1)))


def _as_scores(scores: Union[ScoreSet, Sequence[float], None], k: int) -> ScoreSet:
    if scores is None:
        return ScoreSet.linear(k)
    if not isinstance(scores, ScoreSet):
        scores = ScoreSet(tuple(scores))
    if len(scores.w) != k:
        raise ValidationError(f"got {len(scores.w)} scores for {k} groups")
    return scores


@dataclass(frozen=True)
class TrendResult:
    """Slope of group mean deviations on scores, with its normal test.

    ``p_increasing`` is the upper-tail probability (evidence that spread
    grows with the scores), ``p_decreasing`` the lower tail, and
    ``p_two_sided`` twice the smaller of the two.
    """

    beta_hat: float
    std_error: float
    z_statistic: float
    p_increasing: float
    p_decreasing: float
    p_two_sided: float
    center: CenterKind
    scores: tuple[float, ...]

    def p_value(self, side: str) -> float:
        """The p-value against the alternative ``side``, one of ``SIDES``."""
        return {
            "increasing": self.p_increasing,
            "decreasing": self.p_decreasing,
            "two-sided": self.p_two_sided,
        }[as_side(side)]


def _weighted_slope(
    sizes: Sequence[int], scores: Sequence[float], dev_means: Sequence[float]
) -> tuple[float, float]:
    """Size-weighted regression slope of group deviation means on scores.

    Returns ``(beta_hat, denom)`` with ``denom = sum n_i (w_i - wbar)^2``.
    The intercept term uses the unweighted mean of the group deviation
    means; because the weighted score deviations sum to zero, any
    constant would do, and this one keeps the slope an explicit contrast
    in the group means.
    """
    total = sum(sizes)
    wbar = sum(n * w for n, w in zip(sizes, scores)) / total
    denom = _finite_sum((n * (w - wbar) ** 2 for n, w in zip(sizes, scores)), "the scores' sum of squares")
    grand = sum(dev_means) / len(dev_means)
    contrast = (n * (w - wbar) * (m - grand) for n, w, m in zip(sizes, scores, dev_means))
    return _finite_sum(contrast, "the trend contrast") / denom, denom


def trend_test(
    sample: GroupedSample,
    scores: Union[ScoreSet, Sequence[float], None] = None,
    center: Union[CenterKind, str] = "median",
) -> TrendResult:
    """Test for a monotone trend of spread across the sample's groups.

    Group mean absolute deviations are regressed on the scores (default
    1..k in group order) with group-size weights.  The slope's standard
    error comes from the pooled within-group variance of the deviations
    on N - k degrees of freedom, and the standardized slope is referred
    to the standard normal.
    """
    kind = as_center_kind(center)
    w = _as_scores(scores, sample.k)
    _require_group_size(sample, 2)
    dev = deviations(sample, kind)
    sizes, dev_means, sums_sq = _group_moments(dev)
    total = sum(sizes)
    beta, denom = _weighted_slope(sizes, w.w, dev_means)
    within = sum(sums_sq)
    pooled_var = within / (total - sample.k)
    std_error = math.sqrt(pooled_var / denom)
    if std_error == 0.0 or _sum_sq_is_zero(within, max(float(z.max()) for z in dev.values), total):
        raise DegenerateDataError(
            "no within-group deviation spread: the slope's standard error is zero"
        )
    z_statistic = beta / std_error
    p_increasing = std_normal_sf(z_statistic)
    p_decreasing = std_normal_sf(-z_statistic)
    p_two_sided = min(1.0, 2.0 * min(p_increasing, p_decreasing))
    return TrendResult(
        beta_hat=beta,
        std_error=std_error,
        z_statistic=z_statistic,
        p_increasing=p_increasing,
        p_decreasing=p_decreasing,
        p_two_sided=p_two_sided,
        center=kind,
        scores=w.w,
    )
