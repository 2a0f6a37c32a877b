"""Special functions, distribution tails, and keyed random streams.

The incomplete beta and gamma functions follow the classical recipes:
a power series where it converges quickly and a continued fraction
(evaluated with the modified Lentz algorithm) elsewhere.  Survival
functions are computed directly in the upper tail rather than as
``1 - cdf`` so that small p-values keep full relative precision.

Every special function and tail takes scalars or arrays and works
elementwise over their broadcast shape; all-scalar arguments give a
``float``.  A batch runs each element through the same operations, in
the same order, as a call on that element alone, so its bits do not
depend on what else is in the batch.

Random variates come from numpy's counter-based Philox generator keyed
by ``(master_seed, stream_id)``.  Two streams with the same key always
produce the same sequence, which is what makes simulation results
independent of how replicates are scheduled across workers.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ValidationError, _converted

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


def _elementwise(core: Callable[..., np.ndarray]) -> Callable:
    """Make ``core``, a function of flat float arrays, one that broadcasts its arguments.

    All-scalar arguments give a ``float``.  Overflow and invalid operations
    pass silently, as they do in Python float arithmetic.
    """

    @functools.wraps(core)
    def elementwise(*args):
        arrays = _converted(_broadcast_floats, args)
        with np.errstate(all="ignore"):
            out = core(*(arr.ravel() for arr in arrays))
        return float(out[0]) if arrays[0].ndim == 0 else out.reshape(arrays[0].shape)

    return elementwise


def _broadcast_floats(args: Sequence) -> list[np.ndarray]:
    return np.broadcast_arrays(*(np.asarray(arg, dtype=float) for arg in args))


def _check(ok: np.ndarray, message: str, *columns: np.ndarray) -> None:
    """Raise the ``ValidationError`` of the first element not ``ok``, with its values formatted into ``message``."""
    if not ok.all():
        first = int(np.argmin(ok))
        raise ValidationError(message.format(*(float(column[first]) for column in columns)))


def _finite_positive(values: np.ndarray) -> np.ndarray:
    return (0.0 < values) & (values < math.inf)


def _map(fn: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    # A ``math`` function on each element.  numpy's exp, log and log1p can
    # differ from libm in the last bit, and a tail's bits must not depend on
    # whether it was called on one element or many.
    return np.fromiter(map(fn, values.tolist()), dtype=float, count=values.size)


def _lgamma(values: np.ndarray) -> np.ndarray:
    # Once per distinct value: a batch shares its degrees of freedom.
    memo = {v: math.lgamma(v) for v in set(values.tolist())}
    return np.fromiter(map(memo.__getitem__, values.tolist()), dtype=float, count=values.size)


def _iterations(s: np.ndarray) -> np.ndarray:
    # Near the mean the series and the continued fractions need O(sqrt(s))
    # terms for a large parameter s, so a fixed cap fails from s of a few
    # thousand.  The budget is 400 + 10 sqrt(s) per element up to s = 1e8
    # (100,400 steps), so that a huge s fails in bounded time; all of it
    # scales with _MAX_ITER, so a cap of 0 makes every expansion fail.
    return _MAX_ITER + np.floor(_MAX_ITER / 40.0 * np.sqrt(np.minimum(s, 1e8)))


def _clamp(d):
    # Values of a float or an array within _TINY of zero become _TINY.
    if isinstance(d, float):
        return _TINY if abs(d) < _TINY else d
    # It rarely happens, so look first.
    return d if np.minimum.reduce(np.abs(d), initial=math.inf) >= _TINY else np.where(np.abs(d) < _TINY, _TINY, d)


def _no_convergence(what: str, names: tuple, values) -> ArithmeticError:
    args = ", ".join(f"{name}={float(value)}" for name, value in zip(names, values))
    return ArithmeticError(f"{what} failed to converge for {args}")


def _iterate(what: str, names: tuple, params: tuple, state: tuple, step: Callable, cap: np.ndarray) -> np.ndarray:
    """Run ``step`` on every element until it converges; each element's final value.

    ``step(m, *params, *state)`` is iteration m = 1, 2, ... and returns the
    new state, which elements converged and their values.  Converged
    elements leave the arrays, so each one takes exactly the steps it would
    take alone.  An element still running after ``cap`` of its own
    iterations raises ``ArithmeticError`` naming its leading ``names``.
    The last element left takes its steps on Python floats, which give the
    same bits as 1-element arrays at a fraction of the cost.
    """
    out = np.empty(cap.size)
    index = np.arange(cap.size)
    m = 0
    while index.size > 1:
        m += 1
        if m > cap.min():
            first = int(np.argmax(cap < m))
            raise _no_convergence(what, names, (column[first] for column in params))
        state, done, value = step(m, *params, *state)
        if done.any():
            out[index[done]] = value[done]
            live = ~done
            index, cap = index[live], cap[live]
            params = tuple(column[live] for column in params)
            state = tuple(column[live] for column in state)
    if index.size:
        params = tuple(column.item() for column in params)
        state = tuple(column.item() for column in state)
        done = False
        while not done:
            m += 1
            if m > cap[0]:
                raise _no_convergence(what, names, params)
            state, done, value = step(m, *params, *state)
        out[index[0]] = value
    return out


def _beta_cf_step(m, a, b, x, qab, qap, qam, c, d, h):
    m2 = 2 * m
    a_m2 = a + m2
    aa = m * (b - m) * x / ((qam + m2) * a_m2)
    d = _clamp(1.0 + aa * d)
    c = _clamp(1.0 + aa / c)
    d = 1.0 / d
    h = h * (d * c)
    aa = -(a + m) * (qab + m) * x / (a_m2 * (qap + m2))
    d = _clamp(1.0 + aa * d)
    c = _clamp(1.0 + aa / c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return (c, d, h), abs(delta - 1.0) < _CONV_EPS, h


def _beta_cf(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Continued fraction for the incomplete beta, modified Lentz evaluation.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    d = 1.0 / _clamp(1.0 - qab * x / qap)
    params, state = (a, b, x, qab, qap, qam), (np.ones_like(x), d, d)
    what = "incomplete beta continued fraction"
    return _iterate(what, ("a", "b", "x"), params, state, _beta_cf_step, _iterations(np.maximum(a, b)))


def _reg_inc_beta_xc(a: np.ndarray, b: np.ndarray, x: np.ndarray, cx: np.ndarray) -> np.ndarray:
    # I_x(a, b) with the complement cx = 1 - x supplied by the caller.
    # When x is within rounding distance of 1 the double x alone has lost
    # the tail, so the reflected branch must run on a cx computed without
    # the cancellation (see f_sf).
    out = np.where(x <= 0.0, 0.0, 1.0)
    inside = (x > 0.0) & (cx > 0.0)
    a, b, x, cx = a[inside], b[inside], x[inside], cx[inside]
    pairs = list(zip(x.tolist(), cx.tolist()))
    log_x = np.array([math.log1p(-c) if c < 0.5 else math.log(v) for v, c in pairs], dtype=float)
    log_cx = np.array([math.log1p(-v) if v < 0.5 else math.log(c) for v, c in pairs], dtype=float)
    # x**a * (1-x)**b / (a*B(a, b)), assembled in log space.
    front = _map(math.exp, _lgamma(a + b) - _lgamma(a) - _lgamma(b) + a * log_x + b * log_cx)
    # Use the continued fraction on whichever side of the crossover it
    # converges fast, and the reflection I_x(a,b) = 1 - I_{1-x}(b,a) on the other;
    # both sides run as one batch.
    direct = x < (a + 1.0) / (a + b + 2.0)
    cf = _beta_cf(np.where(direct, a, b), np.where(direct, b, a), np.where(direct, x, cx))
    out[inside] = np.where(direct, front * cf / a, 1.0 - front * cf / b)
    return out


@_elementwise
def reg_inc_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    message = "reg_inc_beta requires finite a > 0 and b > 0, got a={!r}, b={!r}"
    _check(_finite_positive(a) & _finite_positive(b), message, a, b)
    _check((0.0 <= x) & (x <= 1.0), "reg_inc_beta requires 0 <= x <= 1, got x={!r}", x)
    return _reg_inc_beta_xc(a, b, x, 1.0 - x)


def _gamma_front(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    # x**s * exp(-x) / Gamma(s), in log space.
    return _map(math.exp, -x + s * _map(math.log, x) - _lgamma(s))


def _gamma_series_step(m, s, x, term, total, denom):
    denom = denom + 1.0
    term = term * (x / denom)
    total = total + term
    return (term, total, denom), abs(term) < abs(total) * _CONV_EPS, total


def _gamma_series_p(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Lower regularized gamma P(s, x) by power series; good for x < s + 1.
    term = 1.0 / s
    total = _iterate("incomplete gamma series", ("s", "x"), (s, x), (term, term, s), _gamma_series_step, _iterations(s))
    return total * _gamma_front(s, x)


def _gamma_cf_step(i, s, x, b, c, d, h):
    an = -i * (i - s)
    b = b + 2.0
    d = _clamp(an * d + b)
    c = _clamp(b + an / c)
    d = 1.0 / d
    delta = d * c
    h = h * delta
    return (b, c, d, h), abs(delta - 1.0) < _CONV_EPS, h


def _gamma_cf_q(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    # Upper regularized gamma Q(s, x) by continued fraction; good for x >= s + 1.
    b = x + 1.0 - s
    if not b.all():  # x == s, both too large for the 1 to count
        first = int(np.argmin(b != 0.0))
        where = f"s={float(s[first])}, x={float(x[first])}"
        raise ZeroDivisionError(f"incomplete gamma continued fraction divides by zero for {where}")
    d = 1.0 / b
    state = (b, np.full_like(x, 1.0 / _TINY), d, d)
    h = _iterate("incomplete gamma continued fraction", ("s", "x"), (s, x), state, _gamma_cf_step, _iterations(s))
    return h * _gamma_front(s, x)


def _reg_inc_gamma(s: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P(s, x) and Q(s, x) for x >= 0: the expansion that converges fast gives one, 1 minus it the other."""
    p = np.where(x == 0.0, 0.0, 1.0)  # x is 0 or infinite
    series = (x > 0.0) & (x < s + 1.0)
    if series.any():
        p[series] = _gamma_series_p(s[series], x[series])
    q = 1.0 - p
    fraction = (x >= s + 1.0) & (x < math.inf)
    if fraction.any():
        q[fraction] = _gamma_cf_q(s[fraction], x[fraction])
        p[fraction] = 1.0 - q[fraction]
    return p, q


@_elementwise
def reg_inc_gamma_lower(s, x):
    """Lower regularized incomplete gamma function P(s, x)."""
    _check(_finite_positive(s), "reg_inc_gamma_lower requires finite s > 0, got {!r}", s)
    _check(x >= 0.0, "reg_inc_gamma_lower requires x >= 0, got {!r}", x)
    return _reg_inc_gamma(s, x)[0]


@_elementwise
def f_sf(x, d1, d2):
    """Survival function P(F > x) of the F distribution with (d1, d2) df."""
    message = "f_sf requires finite positive degrees of freedom, got d1={!r}, d2={!r}"
    _check(_finite_positive(d1) & _finite_positive(d2), message, d1, d2)
    _check(x >= 0.0, "f_sf requires x >= 0, got {!r}", x)
    denom = d2 + d1 * x
    out = np.where(x == 0.0, 1.0, 0.0)  # x is 0, or d2 + d1 x is infinite
    inside = (x > 0.0) & (denom < math.inf)
    x, d1, d2, denom = x[inside], d1[inside], d2[inside], denom[inside]
    # Both tail arguments are formed directly from positive terms; computing
    # the second as 1 minus the first would wipe out the tail for tiny x.
    out[inside] = _reg_inc_beta_xc(0.5 * d2, 0.5 * d1, d2 / denom, d1 * x / denom)
    return out


@_elementwise
def chi_sq_sf(x, k):
    """Survival function P(X > x) of the chi-squared distribution with k df."""
    _check(_finite_positive(k), "chi_sq_sf requires finite k > 0, got {!r}", k)
    _check(x >= 0.0, "chi_sq_sf requires x >= 0, got {!r}", x)
    return _reg_inc_gamma(0.5 * k, 0.5 * x)[1]


@_elementwise
def std_normal_sf(x):
    """Standard normal upper tail P(Z > x), accurate far into the tail."""
    return 0.5 * _map(math.erfc, x / _SQRT2)


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


def _stream_generators(master_seed: int, stream_ids: Iterable[int]) -> Iterator[np.random.Generator]:
    """One generator, re-keyed in turn to ``RngStream(master_seed, stream_id)`` for each id.

    Each yield draws exactly what that stream's own generator would: the
    key is set, the counter zeroed and the buffer emptied.  Building a
    Philox generator costs more than the draws of a small replicate.
    """
    bits = np.random.Philox(key=np.array([master_seed, 0], dtype=np.uint64))
    generator = np.random.Generator(bits)
    state = bits.state  # a fresh one's: zero counter, empty buffer
    key = state["state"]["key"]
    for stream_id in stream_ids:
        key[1] = stream_id
        bits.state = state
        yield generator


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
    return _draw_rows(dist, (n,), 1, (rng,))[0]


def _draw_rows(dist: DistributionSpec, sizes: Sequence[int], rows: int, generators: Iterable) -> np.ndarray:
    """Row r: ``draw(dist, n, rng)`` for each n in ``sizes``, side by side, from the r-th generator ``rng``.

    A stream is consumed value by value, so one call fills a row (per group and piece for Student-t).
    """
    out = np.empty((rows, sum(sizes)))
    if dist.family == STUDENT_T:
        # t_nu = Z / sqrt(chi2_nu / nu), built from independent pieces so the
        # draw count per variate is fixed by the family alone.
        gamma = np.empty_like(out)
        groups = [slice(end - n, end) for n, end in zip(sizes, itertools.accumulate(sizes))]
        for r, rng in zip(range(rows), generators):
            for group in groups:
                rng.standard_normal(out=out[r, group])
                rng.standard_gamma(0.5 * dist.shape, out=gamma[r, group])
        return out / np.sqrt(2.0 * gamma / dist.shape)
    shape = (0.5 * dist.shape,) if dist.family == CHI_SQUARED else ()
    fill = {NORMAL: "standard_normal", EXPONENTIAL: "standard_exponential", CHI_SQUARED: "standard_gamma"}[dist.family]
    for r, rng in zip(range(rows), generators):
        getattr(rng, fill)(*shape, out=out[r])
    return 2.0 * out if shape else out
