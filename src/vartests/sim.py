"""Monte Carlo harness for size and power studies of the package's tests.

Every replicate draws its groups from a dedicated counter-based random
stream keyed by ``(master_seed, replicate_index)``.  Replicates run in
chunks, each test's kernel once per chunk, and a scenario's results are
bit-identical however replicates are chunked across worker processes.
Degenerate replicates are tallied per test, never silently folded into
the rejection counts.
"""

from __future__ import annotations

import functools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError, _converted, _each_converted
from .means import AdaptiveConfig, _welch
from .numerics import CHI_SQUARED, STUDENT_T, DistributionSpec, _draw_rows, _stream_generators, chi_sq_sf, derive_seed, f_sf
from .samples import CenterKind, _abs_deviations, _rescaled, as_center_kind
from .spread import _MIN_GROUP_SIZE, _bartlett, _box_anderson, _check_correction, _levene_f, _one_way_f, as_correction
from .trend import ScoreSet, _side_p_values, _trend_slope, as_side

__all__ = [
    "Scenario", "CellResult", "SimulationReport", "compile_test_label", "run_grid", "table1_grid",
    "power_ordering_grid",
]

_CHUNK = 512

_DEFAULT_DF = 3.0


def _base_distribution(token: str) -> DistributionSpec:
    """Parse a distribution token ``family[:df]``; ``DistributionSpec`` checks it.

    An empty df means 3 for the families that take one.
    """
    if not isinstance(token, str) or not token:
        raise ValidationError(f"distribution must be a non-empty string, got {token!r}")
    head, _, tail = token.partition(":")
    if not tail:
        return DistributionSpec(head, shape=_DEFAULT_DF if head in (STUDENT_T, CHI_SQUARED) else None)
    try:
        df = float(tail)
    except ValueError:
        raise ValidationError(f"bad degrees of freedom in {token!r}") from None
    return DistributionSpec(head, shape=df)


class _Chunk:
    """Replicates as ``(R, n_i)`` blocks, rescaled (only p-values leave); a non-finite row is degenerate."""

    def __init__(self, blocks: list[np.ndarray]) -> None:
        self.labels = tuple(f"g{i + 1}" for i in range(len(blocks)))
        # e.g. a t variate whose chi-squared draw underflowed to 0 at a tiny df
        self.degenerate = ~np.logical_and.reduce([np.isfinite(block).all(axis=1) for block in blocks])
        for block in blocks:
            block[self.degenerate] = 0.0  # never scored; zeros keep the kernels quiet
        self.blocks = _rescaled(blocks)[0]
        self._deviations: dict[CenterKind, list[np.ndarray]] = {}

    def deviations(self, kind: CenterKind) -> list[np.ndarray]:
        if kind not in self._deviations:
            self._deviations[kind] = [_abs_deviations(block, kind)[1] for block in self.blocks]
        return self._deviations[kind]


def _draw_chunk(scenario: "Scenario", start: int, stop: int) -> _Chunk:
    """Replicates ``start``..``stop - 1``, each drawn from its own ``RngStream(master_seed, rep)`` as if alone."""
    sizes = scenario.group_sizes
    generators = _stream_generators(scenario.master_seed, range(start, stop))
    errors = _draw_rows(scenario._distribution_spec, sizes, stop - start, generators)
    scales = zip(sizes, np.cumsum(sizes), scenario.sigma_ratios, scenario.mean_shifts)
    return _Chunk([errors[:, end - n : end] * ratio + shift for n, end, ratio, shift in scales])


def _f_rows(kernel, chunk: _Chunk):
    # A chunk runner: the chunk's faults (see ``samples``), and the p-values
    # of the rows a mask picks out, all without a fault, in one tail call.
    faults: list = []
    statistic, df1, df2 = kernel(chunk.blocks, chunk.labels, faults)
    df2 = np.broadcast_to(df2, statistic.shape)
    return faults, lambda rows: f_sf(statistic[rows], df1, df2[rows])


def _chi_sq_rows(kernel, chunk: _Chunk):
    faults: list = []
    statistic = kernel(chunk.blocks, chunk.labels, faults)[0]
    return faults, lambda rows: chi_sq_sf(statistic[rows], len(chunk.blocks) - 1)


def _levene_rows(chunk: _Chunk, kind: CenterKind, correction: str):
    faults: list = []
    statistic, df1, df2 = _levene_f(chunk.deviations(kind), chunk.labels, correction, faults)
    return faults, lambda rows: f_sf(statistic[rows], df1, df2)


def _trend_rows(chunk: _Chunk, kind: CenterKind, side: str):
    faults: list = []
    z = _trend_slope(chunk.deviations(kind), ScoreSet.linear(len(chunk.blocks)).w, faults)[2]
    return faults, lambda rows: _side_p_values(z[rows])[side]


def _adaptive_rows(chunk: _Chunk, config: AdaptiveConfig):
    # Each row takes Welch's test if its preliminary Levene test rejects, else the classic F.
    faults, preliminary = _levene_rows(chunk, config.preliminary_center, "none")
    welch = _outcomes(chunk, faults, preliminary)[0] < config.preliminary_level
    welch_faults, welch_p = _f_rows(_welch, chunk)
    classic_faults, classic_p = _f_rows(_one_way_f, chunk)
    faults += [(rows & welch, e) for rows, e in welch_faults] + [(rows & ~welch, e) for rows, e in classic_faults]

    def p_values(rows: np.ndarray) -> np.ndarray:
        p = np.empty(np.count_nonzero(rows))
        p[welch[rows]] = welch_p(rows & welch)
        p[~welch[rows]] = classic_p(rows & ~welch)
        return p

    return faults, p_values


# Each plain test's chunk runner.
_PLAIN_TESTS = {
    "anova": functools.partial(_f_rows, _one_way_f),
    "welch": functools.partial(_f_rows, _welch),
    "bartlett": functools.partial(_chi_sq_rows, _bartlett),
    "box-anderson": functools.partial(_chi_sq_rows, _box_anderson),
}

# The tests that take ``:CENTER[:OPTION]``, with their default center and option.
_DEFAULT_CENTER = "median"
_OPTION_DEFAULTS = {"levene": "none", "trend": "increasing", "adaptive": "0.15"}


class _Compiled(NamedTuple):
    """A test label compiled: its canonical form, chunk runner, smallest group size and parsed parameters."""

    label: str
    runner: Callable
    minimum: int
    family: str
    center: CenterKind | None = None
    option: str | AdaptiveConfig | None = None  # the correction, the side or the adaptive configuration


def compile_test_label(label: str) -> str:
    """Turn a test label into its canonical form.

    Grammar::

        anova | welch | bartlett | box-anderson
        levene[:CENTER[:CORRECTION]]      defaults: median, none
        trend[:CENTER[:SIDE]]             defaults: median, increasing
        adaptive[:CENTER[:LEVEL]]         defaults: median, 0.15

    CENTER is ``mean``, ``median`` or ``trimmed[=P]`` (P, the proportion
    cut from each tail, defaults to 0.25).  The canonical form spells every
    default out but that 0.25: ``levene`` canonicalizes to
    ``levene:median:none``, and ``trend:trimmed=0.25`` to
    ``trend:trimmed:increasing``.
    """
    return _compile(label).label


def _center(token: str) -> CenterKind:
    """The center a label's CENTER piece names: ``mean``, ``median`` or ``trimmed[=P]``."""
    name, equals, proportion = (piece.strip() for piece in token.partition("="))
    if equals and name != "trimmed":
        raise ValidationError(f"only a trimmed center takes a proportion, got {token!r}")
    return CenterKind(name, _converted(float, proportion, "trim proportion") if equals else None)


def _compile(label: str) -> _Compiled:
    """The test a label names, as one record: the one place a test's options are parsed and checked."""
    if not isinstance(label, str) or not label.strip():
        raise ValidationError(f"test label must be a non-empty string, got {label!r}")
    name, *args = (piece.strip() for piece in label.strip().split(":"))
    if name in _PLAIN_TESTS:
        if args:
            raise ValidationError(f"test {name!r} does not take parameters, got {label!r}")
        return _Compiled(name, _PLAIN_TESTS[name], 2, name)
    if name not in _OPTION_DEFAULTS:
        raise ValidationError(f"unknown test {name!r} in label {label!r}")
    if len(args) > 2:
        raise ValidationError(f"too many parameters in test label {label!r}")
    kind = _center(args[0] if args else _DEFAULT_CENTER)
    # An empty option is an error, not the default.
    option = args[1] if len(args) > 1 else _OPTION_DEFAULTS[name]
    if name == "levene":
        option = as_correction(option)
        _check_correction(kind, option)
        runner = functools.partial(_levene_rows, kind=kind, correction=option)
    elif name == "trend":
        option = as_side(option)
        runner = functools.partial(_trend_rows, kind=kind, side=option)
    else:
        option = AdaptiveConfig(_converted(float, option, f"bad level in test label {label!r}"), kind)
        runner = functools.partial(_adaptive_rows, config=option)
    suffix = repr(option.preliminary_level) if name == "adaptive" else option
    minimum = _MIN_GROUP_SIZE[option] if name == "levene" else 2
    return _Compiled(f"{name}:{kind}:{suffix}", runner, minimum, name, kind, option)


@dataclass(frozen=True)
class Scenario:
    """One simulation condition: a data-generating process plus tests to run.

    ``distribution`` names the base error distribution (``normal``,
    ``exponential``, ``student-t[:df]``, ``chi-squared[:df]``); group i
    observes ``mean_shifts[i] + sigma_ratios[i] * error``.  ``tests``
    are labels in the ``compile_test_label`` grammar and are stored in
    canonical form; each is compiled once, here, to its chunk runner.
    """

    name: str
    distribution: str
    group_sizes: tuple[int, ...]
    sigma_ratios: tuple[float, ...]
    mean_shifts: tuple[float, ...] | None
    tests: tuple[str, ...]
    nominal_level: float
    replications: int
    master_seed: int
    # The parsed distribution, and each test's ``_compile`` record.
    _distribution_spec: DistributionSpec = field(init=False, repr=False, compare=False)
    _compiled: tuple[_Compiled, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "_distribution_spec", _base_distribution(self.distribution))
        sizes = _each_converted(int, self.group_sizes, f"scenario {self.name!r} group sizes")
        if any(not isinstance(v, str) and v != n for v, n in zip(self.group_sizes, sizes)):  # int() truncates
            raise ValidationError(f"scenario {self.name!r} group sizes must be whole numbers, got {self.group_sizes!r}")
        if len(sizes) < 2:
            raise ValidationError(f"scenario {self.name!r} needs at least 2 groups")
        if any(n < 2 for n in sizes):
            raise ValidationError(f"scenario {self.name!r} group sizes must all be >= 2")
        object.__setattr__(self, "group_sizes", sizes)
        if self.mean_shifts is None:
            object.__setattr__(self, "mean_shifts", (0.0,) * len(sizes))
        # One float per group, each finite and above the floor.
        per_group = (("sigma_ratios", 0.0, "positive and finite"), ("mean_shifts", -math.inf, "finite"))
        for field_name, floor, rule in per_group:
            what = field_name.replace("_", " ")
            values = _each_converted(float, getattr(self, field_name), f"scenario {self.name!r} {what}")
            if len(values) != len(sizes):
                raise ValidationError(f"scenario {self.name!r} has {len(values)} {what} for {len(sizes)} groups")
            if not all(math.isfinite(v) and v > floor for v in values):
                raise ValidationError(f"scenario {self.name!r} {what} must be {rule}")
            object.__setattr__(self, field_name, values)
        if not self.tests:
            raise ValidationError(f"scenario {self.name!r} lists no tests")
        object.__setattr__(self, "_compiled", _each_converted(_compile, self.tests, f"scenario {self.name!r} tests"))
        canonical = tuple(test.label for test in self._compiled)
        if len(set(canonical)) != len(canonical):
            raise ValidationError(f"scenario {self.name!r} lists duplicate tests {canonical!r}")
        object.__setattr__(self, "tests", canonical)
        level = _converted(float, self.nominal_level, f"scenario {self.name!r} nominal level")
        if not 0.0 < level < 1.0:
            raise ValidationError(
                f"scenario {self.name!r} nominal level must lie in (0, 1), got {self.nominal_level!r}"
            )
        object.__setattr__(self, "nominal_level", level)
        if not isinstance(self.replications, int) or isinstance(self.replications, bool) or self.replications < 1:
            raise ValidationError(
                f"scenario {self.name!r} replications must be a positive integer, got {self.replications!r}"
            )
        if not isinstance(self.master_seed, int) or isinstance(self.master_seed, bool) or not 0 <= self.master_seed < 2**64:
            raise ValidationError(
                f"scenario {self.name!r} master seed must be an integer in [0, 2**64), got {self.master_seed!r}"
            )


@dataclass(frozen=True)
class CellResult:
    """Tallies for one (scenario, test) pair."""

    scenario: Scenario
    test: str
    rejections: int
    error_count: int

    @property
    def replications(self) -> int:
        return self.scenario.replications

    @property
    def valid_replications(self) -> int:
        return self.replications - self.error_count

    @property
    def rejection_rate(self) -> float:
        """Rejections per non-degenerate replicate (NaN if none was valid)."""
        if self.valid_replications == 0:
            return math.nan
        return self.rejections / self.valid_replications

    @property
    def mc_standard_error(self) -> float:
        """Monte Carlo standard error of the rate over the valid replicates (NaN if none)."""
        if self.valid_replications == 0:
            return math.nan
        rate = self.rejection_rate
        return math.sqrt(rate * (1.0 - rate) / self.valid_replications)


@dataclass(frozen=True)
class SimulationReport:
    """All cells of a simulation run, in scenario-then-test order."""

    cells: tuple[CellResult, ...]
    elapsed: float

    def cell(self, scenario_name: str, test: str) -> CellResult:
        for cell in self.cells:
            if cell.scenario.name == scenario_name and cell.test == test:
                return cell
        raise KeyError(f"no cell for scenario {scenario_name!r}, test {test!r}")

    def rates(self) -> dict[tuple[str, str], float]:
        return {(c.scenario.name, c.test): c.rejection_rate for c in self.cells}


def _outcomes(chunk: _Chunk, faults: list, p_value) -> tuple[np.ndarray, np.ndarray]:
    """Each row's p-value (NaN if degenerate) and its degenerate flag.

    ``p_value(rows)`` gives the p-values of the rows a mask picks out, in one call over the rows without a fault.
    """
    bad = chunk.degenerate.copy()
    for rows, _ in faults:
        bad |= rows
    p_values = np.full(bad.shape, math.nan)
    p_values[~bad] = p_value(~bad)
    return p_values, bad


def _run_span(scenario: Scenario, start: int, stop: int) -> list[tuple[int, int]]:
    """``(rejections, degenerate)`` per test over replicates ``start``..``stop - 1``."""
    # Extreme draws overflow or divide by zero; the replicate is counted, not announced.
    with np.errstate(all="ignore"):
        try:
            chunk = _draw_chunk(scenario, start, stop)
        except (MemoryError, ValueError) as exc:  # numpy cannot allocate, or refuses to shape, the chunk's block
            size = f"{stop - start} replicates of {sum(scenario.group_sizes)} values"
            raise ValidationError(f"scenario {scenario.name!r}: cannot allocate a chunk of {size}: {exc}") from None
        tallies = []
        for test in scenario._compiled:
            try:
                p_values, bad = _outcomes(chunk, *test.runner(chunk))
            except ValidationError as exc:
                raise ValidationError(f"scenario {scenario.name!r}: test {test.label!r}: {exc}") from None
            tallies.append((int(np.count_nonzero(p_values < scenario.nominal_level)), int(bad.sum())))
    return tallies


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_spans(spans: Sequence[tuple[Scenario, int, int]]) -> list:
    """Each span's ``_run_span`` tallies in turn, up to the error of the first span that raises one the CLI reports."""
    outcomes: list = []
    for span in spans:
        try:
            outcomes.append(_run_span(*span))
        except (ArithmeticError, DegenerateDataError, ValidationError) as exc:
            return outcomes + [exc]
    return outcomes


def run_grid(scenarios: Sequence[Scenario], workers: int = 1) -> SimulationReport:
    """Run several scenarios and collect every (scenario, test) cell.

    The 512-replicate spans, in scenario-then-chunk order, are dealt to
    ``min(workers, ceil(total replicates / 512), usable CPUs)`` forked
    workers: worker r runs spans r, r + count, ...  A lone worker's spans,
    and those of a worker that dies or does not start, run here.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    if isinstance(scenarios, str) or not isinstance(scenarios, Sequence):
        raise ValidationError(f"scenarios must be a sequence of Scenario objects, got {scenarios!r:.60}")
    for scenario in scenarios:
        if not isinstance(scenario, Scenario):
            raise ValidationError(f"scenarios must be Scenario objects, got {scenario!r:.60}")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValidationError(f"scenario names must be unique, got {sorted(names)!r}")
    if not scenarios:
        raise ValidationError("no scenarios to run")
    for scenario in scenarios:  # a configuration error comes before any replicate is drawn
        for test in scenario._compiled:
            for i, n in enumerate(scenario.group_sizes):
                if n < test.minimum:
                    message = f"group 'g{i + 1}' has size {n}; this test needs at least {test.minimum}"
                    raise ValidationError(f"scenario {scenario.name!r}: test {test.label!r}: {message}")
    started = time.perf_counter()
    spans = [(s, lo, min(lo + _CHUNK, s.replications)) for s in scenarios for lo in range(0, s.replications, _CHUNK)]
    count = min(workers, math.ceil(sum(s.replications for s in scenarios) / _CHUNK), _usable_cpus())
    shares, received = [spans[r::count] for r in range(count)], [None]
    if count > 1:
        from . import _parts  # imported here: most runs fork nothing
        with _parts.forked(functools.partial(_run_spans, share) for share in shares) as results:
            received = list(results)
    outcomes: list = [None] * len(spans)
    for r, (share, got) in enumerate(zip(shares, received)):
        got = _run_spans(share) if got is None else got
        outcomes[r : r + count * len(got) : count] = got
    outcomes_in_order = iter(outcomes)
    cells: list[CellResult] = []
    for scenario in scenarios:
        partials = [next(outcomes_in_order) for _ in range(0, scenario.replications, _CHUNK)]
        for part in partials:  # a worker stops at its first error, so a span it skipped comes after one
            if isinstance(part, Exception):
                raise part
        for slot, test in enumerate(scenario.tests):
            rejections, errors = (sum(part[slot][i] for part in partials) for i in range(2))
            cells.append(CellResult(scenario=scenario, test=test, rejections=rejections, error_count=errors))
    return SimulationReport(cells=tuple(cells), elapsed=time.perf_counter() - started)


_SIGMA_PATTERNS = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 3.0, 5.0))
_TABLE1_SIZES = ((10, 10, 10), (10, 10, 20), (10, 20, 10), (20, 10, 10))
_TABLE1_TESTS = ("anova", "welch", "adaptive:median:0.15")
_POWER_FAMILIES = ("normal", "student-t:3", "chi-squared:3", "exponential")
_POWER_SIZES = ((10, 10, 10), (25, 25, 25))


def _grid(cells: Sequence[tuple], tests: Sequence[str], master_seed: int, replications: int) -> tuple[Scenario, ...]:
    """One scenario per ``(prefix, distribution, sizes, ratios)`` cell, at level 0.05.

    Cell i is named ``<prefix>-n<sizes>-s<ratios>`` and gets the master
    seed ``derive_seed(master_seed, i)``, so the whole grid is
    reproducible from one integer.
    """
    return tuple(
        Scenario(
            name=f"{prefix}-n{'-'.join(map(str, sizes))}-s{'-'.join(format(r, 'g') for r in ratios)}",
            distribution=distribution,
            group_sizes=sizes,
            sigma_ratios=ratios,
            mean_shifts=None,
            tests=tests,
            nominal_level=0.05,
            replications=replications,
            master_seed=derive_seed(master_seed, index),
        )
        for index, (prefix, distribution, sizes, ratios) in enumerate(cells)
    )


def table1_grid(master_seed: int, replications: int = 10000) -> tuple[Scenario, ...]:
    """The normal-errors size study: 4 size layouts x 3 variance ratios.

    Each scenario runs the classic ANOVA, the Welch test, and the
    adaptive procedure at nominal level 0.05.
    """
    cells = [("table1", "normal", sizes, ratios) for sizes in _TABLE1_SIZES for ratios in _SIGMA_PATTERNS]
    return _grid(cells, _TABLE1_TESTS, master_seed, replications)


def power_ordering_grid(
    center: Union[str, CenterKind],
    master_seed: int,
    replications: int = 10000,
) -> tuple[Scenario, ...]:
    """Scenarios comparing the omnibus test to the trend test head to head.

    Four error families x three variance patterns x two size layouts,
    each running the Levene test and the increasing-trend test with the
    given center.  The 1:2:3 and 1:3:5 patterns are monotone, which is
    the trend test's home turf.
    """
    kind = as_center_kind(center)
    cells = [
        (f"power-{kind.name}-{family.replace(':', '')}", family, sizes, ratios)
        for family in _POWER_FAMILIES for ratios in _SIGMA_PATTERNS for sizes in _POWER_SIZES
    ]
    return _grid(cells, (f"levene:{kind}", f"trend:{kind}:increasing"), master_seed, replications)
