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
import pickle
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .means import AdaptiveConfig, PreliminaryLevelWarning, _welch, adaptive_anova, anova_f, welch_anova
from .numerics import CHI_SQUARED, STUDENT_T, DistributionSpec, _draw_rows, _stream_generators, chi_sq_sf, derive_seed, f_sf
from .samples import CenterKind, GroupedSample, _abs_deviations, _hines_hines, _obrien, as_center_kind
from .spread import _bartlett, _box_anderson, _one_way_f, as_correction, bartlett_m, box_anderson_b3, levene_test
from .trend import ScoreSet, _side_p_values, _trend_slope, as_side, trend_test

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
    """Replicates as ``(R, n_i)`` blocks; a non-finite row is degenerate, and deviations are shared."""

    def __init__(self, blocks: list[np.ndarray]) -> None:
        self.blocks = blocks
        self.labels = tuple(f"g{i + 1}" for i in range(len(blocks)))
        # e.g. a t variate whose chi-squared draw underflowed to 0 at a tiny df
        self.degenerate = ~np.logical_and.reduce([np.isfinite(block).all(axis=1) for block in blocks])
        for block in blocks:
            block[self.degenerate] = 0.0  # never scored; zeros keep the kernels quiet
        self._deviations: dict[CenterKind, list[np.ndarray]] = {}

    def deviations(self, kind: CenterKind) -> list[np.ndarray]:
        if kind not in self._deviations:
            self._deviations[kind] = [_abs_deviations(block, kind)[1] for block in self.blocks]
        return self._deviations[kind]


def _draw_chunk(scenario: "Scenario", start: int, stop: int) -> _Chunk:
    """Replicates ``start``..``stop - 1``, each drawn from its own ``RngStream(master_seed, rep)`` as if alone."""
    sizes = scenario.group_sizes
    generators = _stream_generators(scenario.master_seed, range(start, stop))
    errors = _draw_rows(_base_distribution(scenario.distribution), sizes, stop - start, generators)
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
    z, faults = chunk.deviations(kind), []
    if correction == "hines-hines":
        z = _hines_hines(z, chunk.labels, faults)
    elif correction == "obrien":
        z = _obrien(z, chunk.labels, faults)
    statistic, df1, df2 = _one_way_f(z, chunk.labels, faults)
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


# Each plain test's p-value on one sample, and its chunk runner.
_PLAIN_TESTS = {
    "anova": (lambda s: anova_f(s).p_value, lambda c: _f_rows(_one_way_f, c)),
    "welch": (lambda s: welch_anova(s).p_value, lambda c: _f_rows(_welch, c)),
    "bartlett": (lambda s: bartlett_m(s).p_value, lambda c: _chi_sq_rows(_bartlett, c)),
    "box-anderson": (lambda s: box_anderson_b3(s).p_value, lambda c: _chi_sq_rows(_box_anderson, c)),
}

# The tests that take ``:CENTER[:OPTION]``, with their default option.
_OPTION_DEFAULTS = {"levene": "none", "trend": "increasing", "adaptive": "0.15"}


def compile_test_label(label: str) -> tuple[str, Callable[[GroupedSample], float]]:
    """Turn a test label into its canonical form and a p-value function.

    Grammar::

        anova | welch | bartlett | box-anderson
        levene[:CENTER[:CORRECTION]]      defaults: median, none
        trend[:CENTER[:SIDE]]             defaults: median, increasing
        adaptive[:CENTER[:LEVEL]]         defaults: median, 0.15

    The canonical form always spells the defaults out, so e.g.
    ``levene`` canonicalizes to ``levene:median:none``.
    """
    return _compile(label)[:2]


def _compile(label: str) -> tuple[str, Callable[[GroupedSample], float], Callable]:
    """``compile_test_label``'s pair, and the label's chunk runner."""
    if not isinstance(label, str) or not label.strip():
        raise ValidationError(f"test label must be a non-empty string, got {label!r}")
    name, *args = (piece.strip() for piece in label.strip().split(":"))
    if name in _PLAIN_TESTS:
        if args:
            raise ValidationError(f"test {name!r} does not take parameters, got {label!r}")
        return (name, *_PLAIN_TESTS[name])
    if name not in _OPTION_DEFAULTS:
        raise ValidationError(f"unknown test {name!r} in label {label!r}")
    if len(args) > 2:
        raise ValidationError(f"too many parameters in test label {label!r}")
    kind = as_center_kind(args[0] if args else "median")
    # An empty option is an error, not the default.
    option = args[1] if len(args) > 1 else _OPTION_DEFAULTS[name]
    if name == "levene":
        corr = as_correction(option)
        scalar = lambda s: levene_test(s, kind, corr).p_value
        return f"levene:{kind.name}:{corr}", scalar, lambda c: _levene_rows(c, kind, corr)
    if name == "trend":
        side = as_side(option)
        scalar = lambda s: trend_test(s, None, kind).p_value(side)
        return f"trend:{kind.name}:{side}", scalar, lambda c: _trend_rows(c, kind, side)
    try:
        level = float(option)
    except ValueError:
        raise ValidationError(f"bad level in test label {label!r}") from None
    config = AdaptiveConfig(preliminary_level=level, preliminary_center=kind)
    scalar = lambda s: adaptive_anova(s, config).final.p_value
    return f"adaptive:{kind.name}:{level!r}", scalar, lambda c: _adaptive_rows(c, config)


def _compile_quietly(labels: Sequence[str]):
    # The label's own compile already warned once at scenario construction.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreliminaryLevelWarning)
        return [_compile(label) for label in labels]


@dataclass(frozen=True)
class Scenario:
    """One simulation condition: a data-generating process plus tests to run.

    ``distribution`` names the base error distribution (``normal``,
    ``exponential``, ``student-t[:df]``, ``chi-squared[:df]``); group i
    observes ``mean_shifts[i] + sigma_ratios[i] * error``.  ``tests``
    are labels in the ``compile_test_label`` grammar and are stored in
    canonical form.
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

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError(f"scenario name must be a non-empty string, got {self.name!r}")
        _base_distribution(self.distribution)
        sizes = tuple(int(n) for n in self.group_sizes)
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
            values = tuple(float(v) for v in getattr(self, field_name))
            what = field_name.replace("_", " ")
            if len(values) != len(sizes):
                raise ValidationError(f"scenario {self.name!r} has {len(values)} {what} for {len(sizes)} groups")
            if not all(math.isfinite(v) and v > floor for v in values):
                raise ValidationError(f"scenario {self.name!r} {what} must be {rule}")
            object.__setattr__(self, field_name, values)
        if not self.tests:
            raise ValidationError(f"scenario {self.name!r} lists no tests")
        canonical = tuple(compile_test_label(label)[0] for label in self.tests)
        if len(set(canonical)) != len(canonical):
            raise ValidationError(f"scenario {self.name!r} lists duplicate tests {canonical!r}")
        object.__setattr__(self, "tests", canonical)
        if not 0.0 < float(self.nominal_level) < 1.0:
            raise ValidationError(
                f"scenario {self.name!r} nominal level must lie in (0, 1), got {self.nominal_level!r}"
            )
        object.__setattr__(self, "nominal_level", float(self.nominal_level))
        if not isinstance(self.replications, int) or self.replications < 1:
            raise ValidationError(
                f"scenario {self.name!r} replications must be a positive integer, got {self.replications!r}"
            )
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
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


def _outcomes(chunk: _Chunk, faults: list, p_value) -> tuple[np.ndarray, np.ndarray, np.ndarray, str | None]:
    """Each row's p-value (NaN if degenerate), its degenerate and too-large flags, and the first row's message.

    ``p_value(rows)`` gives the p-values of the rows a mask picks out, in one call over the rows without a fault.
    A row is too large when its first failed check is a ``ValidationError``; the message is that error's text.
    """
    bad = chunk.degenerate.copy()
    too_large = np.zeros_like(bad)
    message = None
    for rows, error in faults:
        if isinstance(error, ValidationError):
            first = np.broadcast_to(rows & ~bad, bad.shape)
            too_large |= first
            message = message or (str(error) if first[0] else None)
        bad |= rows
    p_values = np.full(bad.shape, math.nan)
    p_values[~bad] = p_value(~bad)
    return p_values, bad, too_large, message


def _run_span(scenario: Scenario, start: int, stop: int) -> list[tuple[int, int, int, str | None]]:
    """``(rejections, degenerate, too_large, message)`` per test over replicates ``start``..``stop - 1``."""
    # Extreme draws overflow or divide by zero; the replicate is counted, not announced.
    with np.errstate(all="ignore"):
        chunk = _draw_chunk(scenario, start, stop)
        tallies = []
        for test, (_, _, runner) in zip(scenario.tests, _compile_quietly(scenario.tests)):
            try:
                p_values, bad, too_large, message = _outcomes(chunk, *runner(chunk))
            except ValidationError as exc:
                raise ValidationError(f"scenario {scenario.name!r}: test {test!r}: {exc}") from None
            rejections = int(np.count_nonzero(p_values < scenario.nominal_level))
            tallies.append((rejections, int(bad.sum()), int(too_large.sum()), message))
    return tallies


def _dry_run(scenario: Scenario) -> None:
    # Surface configuration errors (e.g. groups too small for a test)
    # before spending replicates; degenerate draws are the tests' business.
    groups = ((f"g{i + 1}", 0.25 + 0.5 * np.arange(n, dtype=float) ** 1.5) for i, n in enumerate(scenario.group_sizes))
    probe = GroupedSample(tuple(groups))
    for test, (_, runner, _) in zip(scenario.tests, _compile_quietly(scenario.tests)):
        try:
            runner(probe)
        except DegenerateDataError:
            pass
        except ValidationError as exc:
            raise ValidationError(f"scenario {scenario.name!r}: test {test!r}: {exc}") from None


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


def _send_outcomes(spans: Sequence[tuple[Scenario, int, int]], write_end: int) -> None:
    with open(write_end, "wb", closefd=False) as out:
        pickle.dump(_run_spans(spans), out)


def _received(pipe) -> list | None:
    """A worker's outcomes, or None if it did not start or its stream ends early."""
    try:
        return None if pipe is None else pickle.loads(pipe.readall())
    except (EOFError, pickle.UnpicklingError):
        return None


def run_grid(scenarios: Sequence[Scenario], workers: int = 1) -> SimulationReport:
    """Run several scenarios and collect every (scenario, test) cell.

    The 512-replicate spans, in scenario-then-chunk order, are dealt to
    ``min(workers, ceil(total replicates / 512), usable CPUs)`` forked
    workers: worker r runs spans r, r + count, ...  A lone worker's spans,
    and those of a worker that dies or does not start, run here.
    """
    if not isinstance(workers, int) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise ValidationError(f"scenario names must be unique, got {sorted(names)!r}")
    if not scenarios:
        raise ValidationError("no scenarios to run")
    for scenario in scenarios:
        _dry_run(scenario)
    started = time.perf_counter()
    spans = [(s, lo, min(lo + _CHUNK, s.replications)) for s in scenarios for lo in range(0, s.replications, _CHUNK)]
    count = min(workers, math.ceil(sum(s.replications for s in scenarios) / _CHUNK), _usable_cpus())
    shares, received = [spans[r::count] for r in range(count)], [None]
    if count > 1:
        from . import _parts  # imported here: most runs fork nothing
        with _parts.forked(functools.partial(_send_outcomes, share) for share in shares) as pipes:
            received = [_received(pipe) for pipe in pipes]
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
            tallies = [part[slot] for part in partials]
            rejections, errors, too_large = (sum(tally[i] for tally in tallies) for i in range(3))
            if too_large == scenario.replications:  # then the cell, not a replicate, is at fault
                raise ValidationError(f"scenario {scenario.name!r}: test {test!r}: {tallies[0][3]}")
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
    return _grid(cells, (f"levene:{kind.name}", f"trend:{kind.name}:increasing"), master_seed, replications)
