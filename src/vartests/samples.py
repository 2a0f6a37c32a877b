"""Grouped samples, location estimates, and absolute-deviation transforms.

Levene-type procedures all start the same way: estimate a center for
each group, replace each observation by its absolute deviation from
that center, and hand the deviations to a location test.  This module
owns that shared first stage, including the two small-sample repairs:
the Hines-Hines zero-deviation correction for median centers and the
O'Brien / Keyes-Levy rescaling for unequal group sizes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError, _converted

__all__ = [
    "CENTERS", "CenterKind", "MEAN", "MEDIAN", "trimmed", "as_center_kind", "GroupedSample",
    "DeviationSet", "center", "deviations", "hines_hines_correct", "obrien_scale",
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
            proportion = 0.25 if self.trim_proportion is None else _converted(float, self.trim_proportion)
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
    frozen = {}
    for entry in groups:
        try:
            label, values = entry
        except (TypeError, ValueError):
            raise ValidationError(f"{what} groups must be (label, values) pairs, got {entry!r}") from None
        if not isinstance(label, str) or not label:
            raise ValidationError(f"group labels must be non-empty strings, got {label!r}")
        if label in frozen:
            raise ValidationError(f"group labels must be unique, got {label!r} twice")
        if isinstance(values, (str, bytes)):
            raise ValidationError(f"group {label!r} values must be a sequence, not the string {values!r}")
        arr = _converted(functools.partial(np.array, dtype=float, copy=True), values)
        if arr.ndim != 1:
            raise ValidationError(f"group {label!r} values must be a 1-D sequence, got {arr.ndim} dimensions")
        if arr.size == 0:
            raise ValidationError(f"group {label!r} is empty")
        if not np.isfinite(arr).all():
            raise ValidationError(f"group {label!r} contains non-finite values")
        arr.setflags(write=False)
        frozen[label] = arr
    if len(frozen) < 2:
        raise ValidationError(f"{what} requires at least 2 groups, got {len(frozen)}")
    return tuple(frozen.items())


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
        position = {label: code for code, label in enumerate(dict.fromkeys(labels))}  # in first-appearance order
        code_type = np.min_scalar_type(max(len(position) - 1, 0))
        codes = np.fromiter(map(position.__getitem__, labels), dtype=code_type, count=len(labels))
        return cls._from_codes(list(position), codes, values, group_order)

    @classmethod
    def _from_codes(cls, present: list[str], codes: np.ndarray, values, group_order=None) -> "GroupedSample":
        """The sample in which ``values[i]`` belongs to group ``present[codes[i]]``; see ``from_columns``."""
        order = present if group_order is None else list(group_order)
        if order is not present and sorted(order) != sorted(present):
            raise ValidationError(f"group order {order!r} does not match the labels present {sorted(present)!r}")
        # One stable sort gathers each group's values contiguously and in order;
        # the narrowest code type lets numpy radix-sort up to 65,536 groups.
        codes = codes.astype(np.min_scalar_type(max(len(present) - 1, 0)), copy=False)
        gathered = np.asarray(values, dtype=float)[np.argsort(codes, kind="stable")]
        edges = [0, *np.cumsum(np.bincount(codes, minlength=len(present))).tolist()]
        groups = dict(zip(present, (gathered[lo:hi] for lo, hi in zip(edges, edges[1:]))))
        return cls(tuple((label, groups[label]) for label in order))

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
            raise ValidationError(f"got {len(centers)} centers for {len(self.groups)} groups")
        object.__setattr__(self, "centers", centers)
        if self.df_adjustment < 0:
            raise ValidationError(f"df_adjustment must be >= 0, got {self.df_adjustment!r}")
        for label, z in self.groups:
            if np.any(z < 0.0):
                raise ValidationError(f"deviation group {label!r} contains negative values")

    @classmethod
    def from_columns(cls, *args, **kwargs) -> "DeviationSet":
        raise ValidationError("a DeviationSet is built by deviations(), not from columns")


def _centers(values: np.ndarray, kind: CenterKind):
    """The center of one group (1-D) or of each replicate in a block (R, n)."""
    if kind.name == "mean":
        return _mean(values)
    if kind.name == "median":  # without an axis, a lone group's median costs 3 us less
        return np.median(values, axis=-1) if values.ndim > 1 else np.median(values)
    n = values.shape[-1]
    cut = int(math.floor(kind.trim_proportion * n))
    return _mean(np.sort(values, axis=-1)[..., cut : n - cut])


def _abs_deviations(values: np.ndarray, kind: CenterKind) -> tuple[np.ndarray, np.ndarray]:
    """The centers of one group (1-D) or of a block of replicates (R, n), and the absolute deviations."""
    c = _centers(values, kind)
    return c, np.abs(_minus(values, c))


def _checked_group(values: Sequence[float]) -> np.ndarray:
    """``center``'s checks on one group: non-empty and finite."""
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("cannot take the center of an empty group")
    if not np.isfinite(arr).all():
        raise ValidationError("cannot take the center of non-finite values")
    return arr


def center(values: Sequence[float], kind: Union[CenterKind, str]) -> float:
    """Location estimate of ``values`` under the given center kind."""
    kind = as_center_kind(kind)
    arr = _checked_group(values)
    try:
        with np.errstate(over="raise"):
            return float(_centers(arr, kind))
    except FloatingPointError:
        message = f"the {kind.name} center overflows a float"
        raise ValidationError(message + ": the values are too large (keep them within 1e150)") from None


def deviations(sample: GroupedSample, kind: Union[CenterKind, str]) -> DeviationSet:
    """Absolute deviations of every observation from its group's center."""
    kind = as_center_kind(kind)
    # A sum in a center, or a difference from it, that overflows raises at
    # once: one floating-point check per call rather than a test per group.
    try:
        with np.errstate(over="raise"):
            centers, values = [], []
            for label, arr in sample.groups:
                c, z = _abs_deviations(_checked_group(arr), kind)
                centers.append(c)
                values.append(z)
    except FloatingPointError:
        message = f"the {kind.name} center or the deviations of group {label!r} overflow a float"
        raise ValidationError(message + ": the values are too large (keep them within 1e150)") from None
    return DeviationSet(tuple(zip(sample.labels, values)), kind, centers)


def _hines_hines(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> list[np.ndarray]:
    """The kernel of ``hines_hines_correct``: odd groups drop their first zero, even ones fold their smallest pair."""
    corrected = []
    for label, z in zip(labels, groups):
        n = z.shape[-1]
        zero = z == 0.0
        _flag(faults, zero.all(axis=-1), DegenerateDataError, f"group {label!r} has no positive deviation from its median")
        if n % 2 == 1:
            message = f"group {label!r} has odd size but no zero deviation; "
            _flag(faults, ~zero.any(axis=-1), ValidationError, message + "were these deviations taken from true group medians?")
            drop = zero.argmax(axis=-1)
            kept = z
        else:
            # The pair a stable sort ranks first: the first minimum, then the first minimum of the rest.
            head = z.argmin(axis=-1)
            first = np.arange(n) == head[..., None]
            after = z[~first].reshape(*z.shape[:-1], n - 1).argmin(axis=-1)
            drop = after + (after >= head)
            kept = z * np.where(first, math.sqrt(2.0), 1.0)
            message = f"the folded deviation of group {label!r} overflows a float: the values are too large"
            _flag(faults, ~np.isfinite(kept).all(axis=-1), ValidationError, message + " (keep them within 1e150)")
        keep = np.arange(n) != drop[..., None]
        corrected.append(kept[keep].reshape(*z.shape[:-1], n - 1))
    return corrected


def _obrien(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> list[np.ndarray]:
    """The kernel of ``obrien_scale``: deviations rescaled by 1 / sqrt(1 - 1/n); rows that overflow are flagged."""
    scaled = []
    for label, z in zip(labels, groups):
        s = z / math.sqrt(1.0 - 1.0 / z.shape[-1])
        message = f"the rescaled deviations of group {label!r} overflow a float: the values are too large"
        _flag(faults, ~np.isfinite(s).all(axis=-1), ValidationError, message + " (keep them within 1e150)")
        scaled.append(s)
    return scaled


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
    corrected = _one_replicate(_hines_hines, dev.values, dev.labels)
    return replace(dev, groups=tuple(zip(dev.labels, corrected)), df_adjustment=dev.df_adjustment + dev.k)


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
    scaled = _one_replicate(_obrien, dev.values, dev.labels)
    return replace(dev, groups=tuple(zip(dev.labels, scaled)), scaled=True)


def expected_mean_deviation(sigma: float, n: int) -> float:
    """E|X - Xbar| for a normal sample: sigma * sqrt((2/pi) * (1 - 1/n)).

    This is the expectation that motivates the O'Brien rescaling: it
    shows directly how mean absolute deviations from a fitted group mean
    shrink as the group gets smaller.
    """
    sigma = _converted(float, sigma)
    if not sigma > 0.0:
        raise ValidationError(f"sigma must be positive, got {sigma!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be a positive integer, got {n!r}")
    return sigma * math.sqrt((2.0 / math.pi) * (1.0 - 1.0 / n))


def _require_group_size(sample: GroupedSample, minimum: int, what: str = "this test") -> None:
    for label, arr in sample.groups:
        if arr.size < minimum:
            raise ValidationError(f"group {label!r} has size {arr.size}; {what} needs at least {minimum}")


# Kernels.  Each statistic is one kernel over groups that are 1-D (one
# replicate: the library call) or (R, n_i) blocks (R replicates: a
# simulator chunk); it loops only over the groups and sums across them
# left to right.  Squares are ``d * d``: a scalar's ``** 2`` calls libm
# ``pow``, which can miss the last bit.  A kernel does not raise on data:
# it appends ``(rows, error)`` to ``faults`` for each check the rows (a
# bool or a mask over the replicates) fail, in the order checked.


def _flag(faults: list, rows, error: type[Exception], message: str) -> None:
    """Record that ``rows`` fail a check, if any does."""
    if rows.any() if isinstance(rows, np.ndarray) else rows:
        faults.append((rows, error(message)))


def _one_replicate(kernel, *args):
    """``kernel`` on the groups of one replicate: its result, or the error of the first check failed."""
    faults: list = []
    with np.errstate(all="ignore"):  # a failed check can leave inf or nan behind
        result = kernel(*args, faults)
    if faults:
        raise faults[0][1]
    return result


def _square(x):
    return x * x


def _mean(arr: np.ndarray):
    """The mean along the last axis, with the bits of ``arr.mean()`` at less cost."""
    return arr.sum(axis=-1) / arr.shape[-1]


def _minus(arr: np.ndarray, per_row):
    """``arr`` less one value per row: broadcast over the last axis of a group or a block."""
    return (arr.T - per_row).T


def _checked_sum(faults: list, terms: Iterable, what: str):
    """``sum(terms)``; rows where the total overflows a float are flagged."""
    total = sum(terms)
    overflow = ~np.isfinite(total) if isinstance(total, np.ndarray) else not math.isfinite(total)
    _flag(faults, overflow, ValidationError, f"{what} overflows a float: the values are too large (keep them within 1e150)")
    return total


def _magnitude(groups: Sequence[np.ndarray]):
    """The largest absolute value over all groups, per row."""
    joined = np.concatenate(groups, axis=-1)
    return np.abs(joined, out=joined).max(axis=-1)


def _group_moments(groups: Sequence[np.ndarray], faults: list) -> tuple[list, list, object]:
    """Each group's mean and sum of squared deviations, and their total; every one-way statistic's start."""
    means, sums_sq = [], []
    for arr in groups:
        m = _mean(arr)
        d = _minus(arr, m)
        means.append(m)
        sums_sq.append(np.square(d, out=d).sum(axis=-1))  # d * d, in place
    return means, sums_sq, _checked_sum(faults, sums_sq, "the sum of squares")


def _nonzero_variances(groups: Sequence[np.ndarray], labels: Sequence[str], faults: list) -> tuple[list, list]:
    """Means and sample variances; rows where a group's variance is zero are flagged."""
    means, sums_sq, _ = _group_moments(groups, faults)
    variances = [ss / (arr.shape[-1] - 1) for arr, ss in zip(groups, sums_sq)]
    for label, arr, v in zip(labels, groups, variances):
        zero = _sum_sq_is_zero(v * (arr.shape[-1] - 1), np.abs(arr).max(axis=-1), arr.shape[-1])
        _flag(faults, zero, DegenerateDataError, f"group {label!r} has zero sample variance")
    return means, variances


def _sum_sq_is_zero(ss, scale, count: int):
    # A sum of squares of `count` values with magnitudes ~`scale` that is
    # this small can only be floating-point residue.  Past a scale of about
    # 1e166 the bound is inf: any finite sum is residue.
    bound = _REL_ZERO * scale
    return ss <= count * (bound * bound)
