"""Grouped samples, location estimates, and absolute-deviation transforms.

Levene-type procedures all start the same way: estimate a center for
each group, replace each observation by its absolute deviation from
that center, and hand the deviations to a location test.  This module
owns that shared first stage, including the two small-sample repairs:
the Hines-Hines zero-deviation correction for median centers and the
O'Brien / Keyes-Levy rescaling for unequal group sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError

__all__ = [
    "CENTERS",
    "CenterKind",
    "MEAN",
    "MEDIAN",
    "trimmed",
    "as_center_kind",
    "GroupedSample",
    "DeviationSet",
    "center",
    "deviations",
    "hines_hines_correct",
    "obrien_scale",
    "expected_mean_deviation",
]

CENTERS = ("mean", "median", "trimmed")

# Relative scale below which a sum of squares is treated as exactly zero.
# Guards against rounding residue (~1e-16 * scale per term) being mistaken
# for real spread, which would turn a degenerate 0/0 into a huge statistic.
_REL_ZERO = 1e-12


@dataclass(frozen=True)
class CenterKind:
    """How a group's center is estimated: 'mean', 'median', or 'trimmed'.

    ``trim_proportion`` is the fraction cut from each tail before
    averaging and only applies to the trimmed kind (default 0.25, i.e.
    the mean of the middle half).
    """

    name: str
    trim_proportion: float | None = None

    def __post_init__(self) -> None:
        if self.name not in CENTERS:
            raise ValidationError(
                f"unknown center kind {self.name!r}; expected one of {', '.join(CENTERS)}"
            )
        if self.name == "trimmed":
            proportion = 0.25 if self.trim_proportion is None else float(self.trim_proportion)
            if not 0.0 <= proportion < 0.5:
                raise ValidationError(
                    f"trim proportion must lie in [0, 0.5), got {self.trim_proportion!r}"
                )
            object.__setattr__(self, "trim_proportion", proportion)
        else:
            object.__setattr__(self, "trim_proportion", None)

    def __str__(self) -> str:
        return self.name


MEAN = CenterKind("mean")
MEDIAN = CenterKind("median")


def trimmed(proportion: float = 0.25) -> CenterKind:
    """The trimmed-mean center cutting ``proportion`` from each tail."""
    return CenterKind("trimmed", proportion)


def as_center_kind(kind: Union[CenterKind, str]) -> CenterKind:
    """Coerce a ``CenterKind`` or its name into a ``CenterKind``."""
    if isinstance(kind, CenterKind):
        return kind
    if isinstance(kind, str):
        return CenterKind(kind)
    raise ValidationError(f"expected a CenterKind or center name, got {kind!r}")


def _freeze_groups(
    groups: Iterable[tuple[str, Sequence[float]]], what: str
) -> tuple[tuple[str, np.ndarray], ...]:
    frozen = []
    for entry in groups:
        try:
            label, values = entry
        except (TypeError, ValueError):
            raise ValidationError(f"{what} groups must be (label, values) pairs, got {entry!r}") from None
        if not isinstance(label, str) or not label:
            raise ValidationError(f"group labels must be non-empty strings, got {label!r}")
        arr = np.array(values, dtype=float, copy=True).ravel()
        if arr.size == 0:
            raise ValidationError(f"group {label!r} is empty")
        if not np.isfinite(arr).all():
            raise ValidationError(f"group {label!r} contains non-finite values")
        arr.setflags(write=False)
        frozen.append((label, arr))
    if len(frozen) < 2:
        raise ValidationError(f"{what} requires at least 2 groups, got {len(frozen)}")
    return tuple(frozen)


@dataclass(frozen=True)
class GroupedSample:
    """A one-way layout: an ordered collection of labeled groups.

    At least two groups, every group non-empty, all values finite.
    Group order is preserved; it is what trend scores refer to.
    """

    groups: tuple[tuple[str, np.ndarray], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", _freeze_groups(self.groups, type(self).__name__))

    @classmethod
    def from_columns(
        cls,
        labels: Sequence[str],
        values: Sequence[float],
        group_order: Sequence[str] | None = None,
    ) -> "GroupedSample":
        """Build a sample from parallel label/value columns.

        Groups are ordered by first appearance unless ``group_order``
        lists every distinct label explicitly.  Each group keeps its
        values in input order.
        """
        if len(labels) != len(values):
            raise ValidationError(
                f"labels and values must have equal length, got {len(labels)} and {len(values)}"
            )
        present = dict.fromkeys(labels)  # dict preserves first-appearance order
        if group_order is not None:
            order = list(group_order)
            if sorted(order) != sorted(present):
                raise ValidationError(
                    f"group order {order!r} does not match the labels present {sorted(present)!r}"
                )
        else:
            order = list(present)
        # Factorise the labels, then one stable sort gathers each group's
        # values contiguously without reordering them.  The narrowest code
        # type lets numpy use its radix sort for up to 65,536 groups.
        position = {label: code for code, label in enumerate(order)}
        code_type = np.min_scalar_type(max(len(order) - 1, 0))
        codes = np.fromiter(map(position.__getitem__, labels), dtype=code_type, count=len(labels))
        gathered = np.asarray(values, dtype=float)[np.argsort(codes, kind="stable")]
        edges = [0, *np.cumsum(np.bincount(codes, minlength=len(order))).tolist()]
        return cls(tuple((label, gathered[lo:hi]) for label, lo, hi in zip(order, edges, edges[1:])))

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.groups)

    @property
    def values(self) -> tuple[np.ndarray, ...]:
        return tuple(arr for _, arr in self.groups)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(arr.size for _, arr in self.groups)

    @property
    def total(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class DeviationSet(GroupedSample):
    """Absolute deviations from group centers: a grouped sample of deviations.

    A location test applied to it is a Levene-type test.
    ``df_adjustment`` counts pseudo-observations removed by corrections
    (one per group for Hines-Hines); ``scaled`` records whether the
    O'Brien rescaling has been applied.  ``centers`` keeps the location
    estimates the deviations were taken from.
    """

    center_kind: CenterKind
    centers: tuple[float, ...]
    df_adjustment: int = 0
    scaled: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "center_kind", as_center_kind(self.center_kind))
        centers = tuple(float(c) for c in self.centers)
        if len(centers) != len(self.groups):
            raise ValidationError(
                f"got {len(centers)} centers for {len(self.groups)} groups"
            )
        object.__setattr__(self, "centers", centers)
        if self.df_adjustment < 0:
            raise ValidationError(f"df_adjustment must be >= 0, got {self.df_adjustment!r}")
        for label, z in self.groups:
            if np.any(z < 0.0):
                raise ValidationError(f"deviation group {label!r} contains negative values")


def center(values: Sequence[float], kind: Union[CenterKind, str]) -> float:
    """Location estimate of ``values`` under the given center kind."""
    kind = as_center_kind(kind)
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("cannot take the center of an empty group")
    if not np.isfinite(arr).all():
        raise ValidationError("cannot take the center of non-finite values")
    if kind.name == "mean":
        return float(arr.mean())
    if kind.name == "median":
        return float(np.median(arr))
    cut = int(math.floor(kind.trim_proportion * arr.size))
    kept = np.sort(arr)[cut : arr.size - cut]
    return float(kept.mean())


def deviations(sample: GroupedSample, kind: Union[CenterKind, str]) -> DeviationSet:
    """Absolute deviations of every observation from its group's center."""
    kind = as_center_kind(kind)
    out = []
    centers = []
    for label, arr in sample.groups:
        c = center(arr, kind)
        centers.append(c)
        out.append((label, np.abs(arr - c)))
    return DeviationSet(tuple(out), kind, tuple(centers))


def hines_hines_correct(dev: DeviationSet) -> DeviationSet:
    """Remove the structural zero each median center plants in its group.

    With median centers every group contains a deviation that is zero by
    construction (odd sizes) or a tied smallest pair that is jointly
    degenerate (even sizes).  Odd groups drop one zero deviation; even
    groups fold the two smallest deviations into a single value sqrt(2)
    times their size.  Either way each group sheds exactly one
    pseudo-observation, and ``df_adjustment`` grows by one per group so
    downstream tests use N - k pseudo-observations in total.
    """
    if dev.center_kind.name != "median":
        raise ValidationError(
            f"the Hines-Hines correction applies to median centers only, got {dev.center_kind.name!r}"
        )
    if dev.df_adjustment != 0:
        raise ValidationError("deviation set is already corrected (df_adjustment != 0)")
    _require_group_size(dev, 2, "the Hines-Hines correction")
    corrected = []
    for label, z in dev.groups:
        if np.all(z == 0.0):
            raise DegenerateDataError(f"group {label!r} has no positive deviation from its median")
        if z.size % 2 == 1:
            zero_at = np.flatnonzero(z == 0.0)
            if zero_at.size == 0:
                raise ValidationError(
                    f"group {label!r} has odd size but no zero deviation; "
                    "were these deviations taken from true group medians?"
                )
            new = np.delete(z, zero_at[0])
        else:
            # Stable argsort keeps the tied smallest pair in input order.
            order = np.argsort(z, kind="stable")
            first, second = int(order[0]), int(order[1])
            new = z.copy()
            new[first] = math.sqrt(2.0) * z[first]
            new = np.delete(new, second)
        corrected.append((label, new))
    return replace(dev, groups=tuple(corrected), df_adjustment=dev.df_adjustment + dev.k)


def obrien_scale(dev: DeviationSet) -> DeviationSet:
    """Rescale each group's deviations by 1 / sqrt(1 - 1/n_i).

    Mean deviations shrink with group size, which biases comparisons
    across unequal groups; this rescaling equalizes their expectations.
    With equal group sizes the common factor cancels out of any location
    statistic, leaving results unchanged.
    """
    if dev.scaled:
        raise ValidationError("deviation set is already scaled")
    _require_group_size(dev, 2, "rescaling")
    scaled = tuple((label, z / math.sqrt(1.0 - 1.0 / z.size)) for label, z in dev.groups)
    return replace(dev, groups=scaled, scaled=True)


def expected_mean_deviation(sigma: float, n: int) -> float:
    """E|X - Xbar| for a normal sample: sigma * sqrt((2/pi) * (1 - 1/n)).

    This is the expectation that motivates the O'Brien rescaling: it
    shows directly how mean absolute deviations from a fitted group mean
    shrink as the group gets smaller.
    """
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    return sigma * math.sqrt((2.0 / math.pi) * (1.0 - 1.0 / n))


def _require_group_size(sample: GroupedSample, minimum: int, what: str = "this test") -> None:
    for label, arr in sample.groups:
        if arr.size < minimum:
            raise ValidationError(f"group {label!r} has size {arr.size}; {what} needs at least {minimum}")


def _finite_sum(terms: Iterable[float], what: str) -> float:
    """``sum(terms)``, or ``ValidationError`` when a term or the total overflows."""
    try:
        total = sum(terms)
    except OverflowError:  # a Python float square out of range
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"{what} overflows a float: the values are too large (keep them within 1e150)")
    return total


def _group_moments(sample: GroupedSample) -> tuple[tuple[int, ...], list[float], list[float]]:
    """Each group's size, mean, and sum of squared deviations from that mean.

    Every one-way statistic takes these from here.  ``ValidationError``
    if the sums of squares overflow, alone or added up.
    """
    values = sample.values
    means = [float(arr.mean()) for arr in values]
    sums_sq = [float(np.sum((arr - m) ** 2)) for arr, m in zip(values, means)]
    _finite_sum(sums_sq, "the sum of squares")
    return sample.sizes, means, sums_sq


def _nonzero_variances(sample: GroupedSample) -> tuple[tuple[int, ...], list[float], list[float]]:
    """Sizes, means and sample variances; ``DegenerateDataError`` if a variance is zero."""
    _require_group_size(sample, 2)
    sizes, means, sums_sq = _group_moments(sample)
    variances = [ss / (n - 1) for n, ss in zip(sizes, sums_sq)]
    for (label, arr), n, v in zip(sample.groups, sizes, variances):
        if _sum_sq_is_zero(v * (n - 1), float(np.abs(arr).max()), n):
            raise DegenerateDataError(f"group {label!r} has zero sample variance")
    return sizes, means, variances


def _sum_sq_is_zero(ss: float, scale: float, count: int) -> bool:
    # A sum of squares of `count` values with magnitudes ~`scale` that is
    # this small can only be floating-point residue.  Past a scale of about
    # 1e166 the bound is inf, not an OverflowError: any finite sum is residue.
    bound = _REL_ZERO * scale
    return ss <= count * (bound * bound)
