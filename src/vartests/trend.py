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
import sys
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError, _each_converted
from .numerics import std_normal_sf
from .samples import CenterKind, GroupedSample, as_center_kind, deviations
from .samples import _checked_sum, _flag, _group_moments, _magnitude, _one_replicate, _require_group_size, _square
from .samples import _sum_sq_is_zero

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
        w = _each_converted(float, self.w, "scores")
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
        scores = ScoreSet(scores)
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


def _trend_slope(groups: Sequence[np.ndarray], scores: Sequence[float], faults: list) -> tuple:
    """The trend test's slope, its standard error and their ratio z, over deviation groups.

    The slope regresses the group deviation means on the scores with size
    weights, over ``denom = sum n_i (w_i - wbar)^2``.  The intercept term
    uses the unweighted mean of the group deviation means; because the
    weighted score deviations sum to zero, any constant would do, and this
    one keeps the slope an explicit contrast in the group means.
    """
    sizes = [z.shape[-1] for z in groups]
    dev_means, _, within = _group_moments(groups, faults)
    total = sum(sizes)
    wbar = sum(n * w for n, w in zip(sizes, scores)) / total
    denom = _checked_sum(faults, (n * _square(w - wbar) for n, w in zip(sizes, scores)), "the scores' sum of squares")
    message = f"scores {tuple(scores)!r} are too close together: their sum of squares underflows"
    _flag(faults, denom < sys.float_info.min, ValidationError, message)
    grand = sum(dev_means) / len(dev_means)
    contrast = (n * (w - wbar) * (m - grand) for n, w, m in zip(sizes, scores, dev_means))
    beta = _checked_sum(faults, contrast, "the trend contrast") / denom
    std_error = np.sqrt(within / (total - len(groups)) / denom)
    zero = (std_error == 0.0) | _sum_sq_is_zero(within, _magnitude(groups), total)
    _flag(faults, zero, DegenerateDataError, "no within-group deviation spread: the slope's standard error is zero")
    return beta, std_error, beta / std_error


def _side_p_values(z):
    """The p-values of the standardized slopes ``z`` (a float or an array) against each alternative in ``SIDES``."""
    increasing = std_normal_sf(z)
    decreasing = std_normal_sf(-z)
    return dict(zip(SIDES, (increasing, decreasing, np.minimum(1.0, 2.0 * np.minimum(increasing, decreasing)))))


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
    beta, std_error, z_statistic = _one_replicate(_trend_slope, dev.values, w.w)
    p = map(float, _side_p_values(float(z_statistic)).values())  # in the order of SIDES
    return TrendResult(float(beta), float(std_error), float(z_statistic), *p, center=kind, scores=w.w)
