"""Monte Carlo harness for size and power studies of the package's tests.

Every replicate draws its groups from a dedicated counter-based random
stream keyed by ``(master_seed, replicate_index)``, so a scenario's
results are bit-identical no matter how replicates are chunked across
worker processes.  Degenerate replicates (tests raising
``DegenerateDataError``) are tallied per test, never silently folded
into the rejection counts.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .means import AdaptiveConfig, PreliminaryLevelWarning, adaptive_anova, anova_f, welch_anova
from .numerics import (
    CHI_SQUARED,
    STUDENT_T,
    DistributionSpec,
    RngStream,
    derive_seed,
)
from .numerics import draw as _draw
from .samples import CenterKind, GroupedSample, as_center_kind
from .spread import as_correction, bartlett_m, box_anderson_b3, levene_test
from .trend import as_side, trend_test

__all__ = [
    "Scenario",
    "CellResult",
    "SimulationReport",
    "compile_test_label",
    "run_grid",
    "table1_grid",
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


def _parse_level(text: str, label: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"bad level in test label {label!r}") from None


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
    if not isinstance(label, str) or not label.strip():
        raise ValidationError(f"test label must be a non-empty string, got {label!r}")
    parts = [piece.strip() for piece in label.strip().split(":")]
    name, args = parts[0], parts[1:]
    if name in ("anova", "welch", "bartlett", "box-anderson"):
        if args:
            raise ValidationError(f"test {name!r} does not take parameters, got {label!r}")
        runner = {
            "anova": lambda s: anova_f(s).p_value,
            "welch": lambda s: welch_anova(s).p_value,
            "bartlett": lambda s: bartlett_m(s).p_value,
            "box-anderson": lambda s: box_anderson_b3(s).p_value,
        }[name]
        return name, runner
    if name == "levene":
        if len(args) > 2:
            raise ValidationError(f"too many parameters in test label {label!r}")
        kind = as_center_kind(args[0] if args else "median")
        correction = as_correction(args[1] if len(args) > 1 else "none")
        canonical = f"levene:{kind.name}:{correction}"
        return canonical, lambda s: levene_test(s, kind, correction).p_value
    if name == "trend":
        if len(args) > 2:
            raise ValidationError(f"too many parameters in test label {label!r}")
        kind = as_center_kind(args[0] if args else "median")
        side = as_side(args[1] if len(args) > 1 else "increasing")
        canonical = f"trend:{kind.name}:{side}"
        return canonical, lambda s: trend_test(s, None, kind).p_value(side)
    if name == "adaptive":
        if len(args) > 2:
            raise ValidationError(f"too many parameters in test label {label!r}")
        kind = as_center_kind(args[0] if args else "median")
        level = _parse_level(args[1], label) if len(args) > 1 else 0.15
        config = AdaptiveConfig(preliminary_level=level, preliminary_center=kind)
        canonical = f"adaptive:{kind.name}:{level!r}"
        return canonical, lambda s: adaptive_anova(s, config).final.p_value
    raise ValidationError(f"unknown test {name!r} in label {label!r}")


def _compile_quietly(labels: Sequence[str]):
    # The label's own compile already warned once at scenario construction.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreliminaryLevelWarning)
        return [compile_test_label(label)[1] for label in labels]


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
        ratios = tuple(float(r) for r in self.sigma_ratios)
        if len(ratios) != len(sizes):
            raise ValidationError(
                f"scenario {self.name!r} has {len(ratios)} sigma ratios for {len(sizes)} groups"
            )
        if not all(math.isfinite(r) and r > 0.0 for r in ratios):
            raise ValidationError(f"scenario {self.name!r} sigma ratios must be positive and finite")
        object.__setattr__(self, "sigma_ratios", ratios)
        shifts = self.mean_shifts
        shifts = tuple(0.0 for _ in sizes) if shifts is None else tuple(float(m) for m in shifts)
        if len(shifts) != len(sizes):
            raise ValidationError(
                f"scenario {self.name!r} has {len(shifts)} mean shifts for {len(sizes)} groups"
            )
        if not all(math.isfinite(m) for m in shifts):
            raise ValidationError(f"scenario {self.name!r} mean shifts must be finite")
        object.__setattr__(self, "mean_shifts", shifts)
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


def _replicate_sample(scenario: Scenario, base: DistributionSpec, rep: int) -> GroupedSample:
    rng = RngStream(scenario.master_seed, rep).generator()
    groups = []
    for index, size in enumerate(scenario.group_sizes):
        errors = _draw(base, size, rng)
        values = scenario.mean_shifts[index] + scenario.sigma_ratios[index] * errors
        groups.append((f"g{index + 1}", values))
    return GroupedSample(tuple(groups))


def _run_span(scenario: Scenario, start: int, stop: int) -> tuple[list[int], list[int]]:
    runners = _compile_quietly(scenario.tests)
    base = _base_distribution(scenario.distribution)
    rejections = [0] * len(runners)
    errors = [0] * len(runners)
    for rep in range(start, stop):
        sample = _replicate_sample(scenario, base, rep)
        for slot, runner in enumerate(runners):
            try:
                p = runner(sample)
            except DegenerateDataError:
                errors[slot] += 1
            else:
                if p < scenario.nominal_level:
                    rejections[slot] += 1
    return rejections, errors


def _dry_run(scenario: Scenario) -> None:
    # Surface configuration errors (e.g. groups too small for a test)
    # before spending replicates; degenerate draws are the tests' business.
    runners = _compile_quietly(scenario.tests)
    probe = GroupedSample(
        tuple(
            (f"g{i + 1}", 0.25 + 0.5 * np.arange(size, dtype=float) ** 1.5)
            for i, size in enumerate(scenario.group_sizes)
        )
    )
    for runner in runners:
        try:
            runner(probe)
        except DegenerateDataError:
            pass


def _pool_size(scenarios: Sequence[Scenario], workers: int) -> int:
    """Worker processes worth starting for ``scenarios``.

    A pool forks all of its workers at once, so the request is capped by
    the chunk count of the largest scenario and by the number of CPUs.
    """
    chunks = max(math.ceil(s.replications / _CHUNK) for s in scenarios)
    return min(workers, chunks, os.cpu_count() or 1)


def run_grid(scenarios: Sequence[Scenario], workers: int = 1) -> SimulationReport:
    """Run several scenarios and collect every (scenario, test) cell."""
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
    cells: list[CellResult] = []
    pool_size = _pool_size(scenarios, workers)
    pool = ProcessPoolExecutor(max_workers=pool_size) if pool_size > 1 else None
    mapper = map if pool is None else pool.map
    try:
        for scenario in scenarios:
            starts = range(0, scenario.replications, _CHUNK)
            stops = [min(lo + _CHUNK, scenario.replications) for lo in starts]
            partials = list(mapper(_run_span, [scenario] * len(starts), starts, stops))
            for slot, test in enumerate(scenario.tests):
                cells.append(
                    CellResult(
                        scenario=scenario,
                        test=test,
                        rejections=sum(part[0][slot] for part in partials),
                        error_count=sum(part[1][slot] for part in partials),
                    )
                )
    finally:
        if pool is not None:
            pool.shutdown()
    return SimulationReport(cells=tuple(cells), elapsed=time.perf_counter() - started)


_TABLE1_SIZES = ((10, 10, 10), (10, 10, 20), (10, 20, 10), (20, 10, 10))
_TABLE1_RATIOS = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 3.0, 5.0))
_TABLE1_TESTS = ("anova", "welch", "adaptive:median:0.15")


def table1_grid(master_seed: int, replications: int = 10000) -> tuple[Scenario, ...]:
    """The normal-errors size study: 4 size layouts x 3 variance ratios.

    Each scenario runs the classic ANOVA, the Welch test, and the
    adaptive procedure at nominal level 0.05.  Per-scenario master seeds
    are derived from ``master_seed`` and the scenario's position, so the
    whole grid is reproducible from one integer.
    """
    scenarios = []
    for index, (sizes, ratios) in enumerate(
        (sizes, ratios) for sizes in _TABLE1_SIZES for ratios in _TABLE1_RATIOS
    ):
        name = "table1-n{}-s{}".format(
            "-".join(str(n) for n in sizes),
            "-".join(format(r, "g") for r in ratios),
        )
        scenarios.append(
            Scenario(
                name=name,
                distribution="normal",
                group_sizes=sizes,
                sigma_ratios=ratios,
                mean_shifts=None,
                tests=_TABLE1_TESTS,
                nominal_level=0.05,
                replications=replications,
                master_seed=derive_seed(master_seed, index),
            )
        )
    return tuple(scenarios)


_POWER_FAMILIES = ("normal", "student-t:3", "chi-squared:3", "exponential")
_POWER_RATIOS = ((1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 3.0, 5.0))
_POWER_SIZES = ((10, 10, 10), (25, 25, 25))


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
    tests = (f"levene:{kind.name}", f"trend:{kind.name}:increasing")
    scenarios = []
    index = 0
    for family in _POWER_FAMILIES:
        for ratios in _POWER_RATIOS:
            for sizes in _POWER_SIZES:
                name = "power-{}-{}-n{}-s{}".format(
                    kind.name,
                    family.replace(":", ""),
                    "-".join(str(n) for n in sizes),
                    "-".join(format(r, "g") for r in ratios),
                )
                scenarios.append(
                    Scenario(
                        name=name,
                        distribution=family,
                        group_sizes=sizes,
                        sigma_ratios=ratios,
                        mean_shifts=None,
                        tests=tests,
                        nominal_level=0.05,
                        replications=replications,
                        master_seed=derive_seed(master_seed, index),
                    )
                )
                index += 1
    return tuple(scenarios)
