"""Scalar special functions, distribution tails, and keyed random streams.

The incomplete beta and gamma functions follow the classical recipes:
a power series where it converges quickly and a continued fraction
(evaluated with the modified Lentz algorithm) elsewhere.  Survival
functions are computed directly in the upper tail rather than as
``1 - cdf`` so that small p-values keep full relative precision.

Random variates come from numpy's counter-based Philox generator keyed
by ``(master_seed, stream_id)``.  Two streams with the same key always
produce the same sequence, which is what makes simulation results
independent of how replicates are scheduled across workers.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "reg_inc_beta",
    "reg_inc_gamma_lower",
    "f_sf",
    "chi_sq_sf",
    "std_normal_sf",
    "DistributionSpec",
    "RngStream",
    "derive_seed",
    "draw",
]

_MAX_ITER = 400
_CONV_EPS = 1e-15
_TINY = 1e-300
_SQRT2 = math.sqrt(2.0)

_SEED_MODULUS = 2**64


def _iterations(s: float) -> int:
    # Near the mean the series and the continued fractions need O(sqrt(s))
    # terms for a large parameter s, so a fixed cap fails from s of a few
    # thousand.  The budget is 400 + 10 sqrt(s); all of it scales with
    # _MAX_ITER, so a cap of 0 makes every expansion fail.
    return _MAX_ITER + int(_MAX_ITER / 40.0 * math.sqrt(s))


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz evaluation.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _iterations(max(a, b)) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CONV_EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}")


def _reg_inc_beta_xc(a: float, b: float, x: float, cx: float) -> float:
    # I_x(a, b) with the complement cx = 1 - x supplied by the caller.
    # When x is within rounding distance of 1 the double x alone has lost
    # the tail, so the reflected branch must run on a cx computed without
    # the cancellation (see f_sf).
    if x <= 0.0:
        return 0.0
    if cx <= 0.0:
        return 1.0
    log_x = math.log1p(-cx) if cx < 0.5 else math.log(x)
    log_cx = math.log1p(-x) if x < 0.5 else math.log(cx)
    # x**a * (1-x)**b / (a*B(a, b)), assembled in log space.
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * log_x + b * log_cx)
    # Use the continued fraction on whichever side of the crossover it
    # converges fast, and the reflection I_x(a,b) = 1 - I_{1-x}(b,a) on the other.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, cx) / b


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    a = float(a)
    b = float(b)
    x = float(x)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValidationError(f"reg_inc_beta requires finite a > 0 and b > 0, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"reg_inc_beta requires 0 <= x <= 1, got x={x!r}")
    return _reg_inc_beta_xc(a, b, x, 1.0 - x)


def _gamma_series_p(s: float, x: float) -> float:
    # Lower regularized gamma P(s, x) by power series; good for x < s + 1.
    term = 1.0 / s
    total = term
    denom = s
    for _ in range(_iterations(s)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _CONV_EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"incomplete gamma series failed to converge for s={s}, x={x}")


def _gamma_cf_q(s: float, x: float) -> float:
    # Upper regularized gamma Q(s, x) by continued fraction; good for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _iterations(s) + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CONV_EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ArithmeticError(f"incomplete gamma continued fraction failed to converge for s={s}, x={x}")


def reg_inc_gamma_lower(s: float, x: float) -> float:
    """Lower regularized incomplete gamma function P(s, x)."""
    s = float(s)
    x = float(x)
    if not 0.0 < s < math.inf:
        raise ValidationError(f"reg_inc_gamma_lower requires finite s > 0, got {s!r}")
    if not x >= 0.0:
        raise ValidationError(f"reg_inc_gamma_lower requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if x < s + 1.0:
        return _gamma_series_p(s, x)
    return 1.0 - _gamma_cf_q(s, x)


def _reg_inc_gamma_upper(s: float, x: float) -> float:
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _gamma_series_p(s, x)
    return _gamma_cf_q(s, x)


def f_sf(x: float, d1: float, d2: float) -> float:
    """Survival function P(F > x) of the F distribution with (d1, d2) df."""
    x = float(x)
    d1 = float(d1)
    d2 = float(d2)
    if not (0.0 < d1 < math.inf and 0.0 < d2 < math.inf):
        raise ValidationError(f"f_sf requires finite positive degrees of freedom, got d1={d1!r}, d2={d2!r}")
    if not x >= 0.0:
        raise ValidationError(f"f_sf requires x >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    denom = d2 + d1 * x
    if math.isinf(denom):
        return 0.0
    # Both tail arguments are formed directly from positive terms; computing
    # the second as 1 minus the first would wipe out the tail for tiny x.
    return _reg_inc_beta_xc(0.5 * d2, 0.5 * d1, d2 / denom, d1 * x / denom)


def chi_sq_sf(x: float, k: float) -> float:
    """Survival function P(X > x) of the chi-squared distribution with k df."""
    x = float(x)
    k = float(k)
    if not 0.0 < k < math.inf:
        raise ValidationError(f"chi_sq_sf requires finite k > 0, got {k!r}")
    if not x >= 0.0:
        raise ValidationError(f"chi_sq_sf requires x >= 0, got {x!r}")
    if math.isinf(x):
        return 0.0
    return _reg_inc_gamma_upper(0.5 * k, 0.5 * x)


def std_normal_sf(x: float) -> float:
    """Standard normal upper tail P(Z > x), accurate far into the tail."""
    return 0.5 * math.erfc(float(x) / _SQRT2)


NORMAL = "normal"
EXPONENTIAL = "exponential"
STUDENT_T = "student-t"
CHI_SQUARED = "chi-squared"

_FAMILIES = (NORMAL, EXPONENTIAL, STUDENT_T, CHI_SQUARED)
_SHAPE_FAMILIES = (STUDENT_T, CHI_SQUARED)


@dataclass(frozen=True)
class DistributionSpec:
    """A standard sampling distribution: a family plus an optional shape.

    ``shape`` is the degrees of freedom and is required for ``student-t``
    and ``chi-squared``; the other families must leave it unset.  Draws
    are unshifted and unscaled; callers apply location and scale.
    """

    family: str
    shape: float | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValidationError(
                f"unknown distribution family {self.family!r}; expected one of {', '.join(_FAMILIES)}"
            )
        if self.family in _SHAPE_FAMILIES:
            if self.shape is None or not 0.0 < self.shape < math.inf:
                raise ValidationError(
                    f"family {self.family!r} requires a finite positive shape (degrees of freedom), got {self.shape!r}"
                )
        elif self.shape is not None:
            raise ValidationError(f"family {self.family!r} does not take a shape parameter")


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream keyed by ``(master_seed, stream_id)``.

    Backed by the counter-based Philox generator, so equal keys give
    bit-identical sequences no matter where or in what order the streams
    are created.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value < _SEED_MODULUS:
                raise ValidationError(f"{name} must lie in [0, 2**64), got {value!r}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def derive_seed(*parts: int) -> int:
    """Collapse integers into a 64-bit master seed via a stable hash.

    The mapping is fixed for all time (BLAKE2b over the little-endian
    byte encoding of the parts), so derived seeds are reproducible
    across runs, machines, and Python versions.
    """
    if not parts:
        raise ValidationError("derive_seed requires at least one integer part")
    digest = hashlib.blake2b(digest_size=8)
    for part in parts:
        if not isinstance(part, int) or isinstance(part, bool):
            raise ValidationError(f"derive_seed parts must be integers, got {part!r}")
        digest.update(int(part % _SEED_MODULUS).to_bytes(8, "little"))
    return int.from_bytes(digest.digest(), "little")


def draw(dist: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` variates from ``dist`` using an existing generator."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"sample size must be a positive integer, got {n!r}")
    if dist.family == NORMAL:
        base = rng.standard_normal(n)
    elif dist.family == EXPONENTIAL:
        base = rng.standard_exponential(n)
    elif dist.family == STUDENT_T:
        # t_nu = Z / sqrt(chi2_nu / nu), built from independent pieces so the
        # draw count per variate is fixed by the family alone.
        z = rng.standard_normal(n)
        chi2 = 2.0 * rng.standard_gamma(0.5 * dist.shape, n)
        base = z / np.sqrt(chi2 / dist.shape)
    else:  # chi-squared
        base = 2.0 * rng.standard_gamma(0.5 * dist.shape, n)
    return base
