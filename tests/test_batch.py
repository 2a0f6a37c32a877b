"""The simulator's chunk path is the scalar API run on many replicates at once.

Every statistic is one kernel over a batch of replicates.  The library
calls it on one replicate; ``simulate`` calls it on each chunk.  These
tests check that the two give the same bits, that the chunk size
changes no cell, and that seeded tallies stay what they were.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vartests.sim as sim
from vartests import (
    AdaptiveConfig,
    DegenerateDataError,
    GroupedSample,
    Scenario,
    adaptive_anova,
    anova_f,
    bartlett_m,
    box_anderson_b3,
    derive_seed,
    levene_test,
    power_ordering_grid,
    run_grid,
    table1_grid,
    trend_test,
    trimmed,
    welch_anova,
)
from vartests.samples import CENTERS
from vartests.spread import CORRECTIONS
from vartests.trend import SIDES

# Every label the registry compiles, with two adaptive levels, and a
# trimmed center of another proportion than the default 0.25.
LABELS = (
    "anova",
    "welch",
    "bartlett",
    "box-anderson",
    *(f"levene:{c}:{r}" for c in CENTERS for r in CORRECTIONS if r != "hines-hines" or c == "median"),
    *(f"trend:{c}:{side}" for c in CENTERS for side in SIDES),
    *(f"adaptive:{c}:{level}" for c in CENTERS for level in ("0.15", "0.25")),
    "levene:trimmed=0.1:none",
    "trend:trimmed=0.1:increasing",
    "adaptive:trimmed=0.1:0.15",
)

# How a row of the stacked blocks is made.  Besides plain data: ties
# (integer values), a constant group, every group of the form c +- a (a
# pooled kurtosis of exactly 1 when every group has even size), a
# non-finite value, and values near 1e200 or 1e-200, whose squares
# overflow or underflow unless the row is rescaled.
ROW_KINDS = ("plain", "ties", "constant", "two-point", "non-finite", "huge", "tiny")


def _row(kind, sizes, rng):
    groups = [rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 3), size=n) for n in sizes]
    if kind == "ties":
        groups = [np.round(g) for g in groups]
    elif kind == "constant":
        groups[int(rng.integers(len(sizes)))][:] = 2.5
    elif kind == "two-point":
        groups = [rng.normal() + np.where(np.arange(n) % 2 == 1, 1.0, -1.0) for n in sizes]
    elif kind == "non-finite":
        groups[-1][0] = rng.choice([np.nan, np.inf])
    elif kind == "huge":
        groups = [1e200 * g for g in groups]
    elif kind == "tiny":
        groups = [1e-200 * g for g in groups]
    return groups


# The public function behind each test name, called with the label's
# center and option: the reference, read from the label independently of
# the simulator's parser.
_LIBRARY = {
    "anova": lambda s: anova_f(s).p_value,
    "welch": lambda s: welch_anova(s).p_value,
    "bartlett": lambda s: bartlett_m(s).p_value,
    "box-anderson": lambda s: box_anderson_b3(s).p_value,
    "levene": lambda s, center, correction: levene_test(s, center, correction).p_value,
    "trend": lambda s, center, side: trend_test(s, None, center).p_value(side),
    "adaptive": lambda s, center, level: adaptive_anova(s, AdaptiveConfig(float(level), center)).final.p_value,
}


def _scalar_outcome(label, groups):
    """A p-value, or "degenerate", from the library's call on one replicate."""
    if not all(np.isfinite(g).all() for g in groups):
        return "degenerate"
    name, *options = label.split(":")
    if options:  # a center, as ``trimmed(P)`` where the label gives P
        center, _, proportion = options[0].partition("=")
        options[0] = trimmed(float(proportion)) if proportion else center
    try:
        return _LIBRARY[name](GroupedSample(tuple((f"g{i + 1}", g) for i, g in enumerate(groups))), *options)
    except DegenerateDataError:
        return "degenerate"


@settings(max_examples=40)
@given(
    sizes=st.lists(st.integers(2, 9), min_size=2, max_size=4),
    kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_chunk_gives_the_bits_of_one_call_per_replicate(sizes, kinds, seed):
    rng = np.random.default_rng(seed)
    rows = [_row(kind, sizes, rng) for kind in kinds]
    for label in LABELS:
        if label.endswith("hines-hines") and min(sizes) < 3:
            continue  # a configuration error, which run_grid reports before any replicate is drawn
        runner = sim._compile(label)[1]
        with np.errstate(all="ignore"):  # as in the simulator
            chunk = sim._Chunk([np.array([row[g] for row in rows]) for g in range(len(sizes))])
            p_values, bad = sim._outcomes(chunk, *runner(chunk))
        batched = ["degenerate" if b else p for p, b in zip(p_values, bad)]
        expected = [_scalar_outcome(label, row) for row in rows]
        assert batched == expected, f"{label} on rows {kinds}"


@pytest.fixture(scope="module")
def chunked_scenarios():
    return (
        Scenario("t3", "student-t:3", (8, 12, 16), (1.0, 1.5, 2.0), None, LABELS[:14], 0.05, 40, 11),
        Scenario("exp", "exponential", (2, 3, 5), (1.0, 1.0, 3.0), (0.0, 1.0, 0.0), LABELS[14:], 0.05, 40, 12),
    )


@pytest.mark.parametrize("chunk", [1, 7, 512])
def test_the_chunk_size_changes_no_cell(monkeypatch, chunked_scenarios, chunk):
    reference = [(c.rejections, c.error_count) for c in run_grid(chunked_scenarios).cells]
    monkeypatch.setattr(sim, "_CHUNK", chunk)
    assert [(c.rejections, c.error_count) for c in run_grid(chunked_scenarios).cells] == reference


# Rejections per cell, in run_grid order, of seeded grids at 300
# replicates.  They were recorded when each replicate still ran through
# the scalar API; no cell had a degenerate replicate.
_SPREAD_TESTS = (
    "levene:mean",
    "levene:median",
    "levene:trimmed",
    "levene:median:hines-hines",
    "levene:median:obrien",
    "bartlett",
    "box-anderson",
    "trend:median:increasing",
)
_SPREAD_CELLS = (
    ("t3-unequal", "student-t:3", (8, 12, 16, 20), (1.0, 1.5, 2.0, 2.5)),
    ("chi3-null", "chi-squared:3", (5, 5, 5, 5, 5), (1.0,) * 5),
    ("exp-one-wide", "exponential", (40, 40, 40), (1.0, 1.0, 1.5)),
)
_GOLDEN = {
    "table1": [15, 15, 15, 15, 19, 19, 20, 16, 16, 14, 16, 15, 9, 12, 12, 9, 19, 19, 16, 19, 18, 26, 20, 21, 27, 12,
               12, 15, 15, 16, 35, 13, 15, 36, 16, 17],
    "power-mean": [15, 16, 14, 14, 185, 262, 298, 300, 280, 297, 300, 300, 27, 25, 21, 20, 143, 224, 256, 287, 208,
                   260, 292, 298, 46, 34, 40, 30, 199, 244, 284, 295, 253, 285, 300, 300, 66, 38, 63, 29, 175, 226,
                   282, 289, 255, 283, 298, 300],
    "power-median": [9, 10, 10, 8, 144, 248, 296, 300, 245, 293, 300, 300, 9, 14, 16, 15, 93, 199, 243, 283, 160,
                     245, 290, 299, 16, 13, 15, 16, 110, 214, 266, 292, 169, 269, 297, 299, 13, 18, 14, 19, 84, 178,
                     236, 283, 151, 251, 292, 298],
    "power-trimmed": [11, 13, 13, 11, 167, 257, 298, 300, 259, 296, 300, 300, 17, 16, 18, 15, 109, 208, 248, 284,
                      168, 252, 290, 299, 23, 17, 19, 16, 141, 224, 270, 294, 197, 275, 297, 299, 32, 23, 18, 22,
                      114, 191, 247, 285, 177, 259, 292, 298],
    "spread": [78, 54, 60, 48, 49, 233, 63, 193, 65, 5, 30, 15, 5, 70, 24, 8, 177, 111, 127, 111, 111, 223, 90, 147],
}


def _golden_grid(name):
    if name == "table1":
        return table1_grid(5, 300)
    if name == "spread":
        return tuple(
            Scenario(label, distribution, sizes, ratios, None, _SPREAD_TESTS, 0.05, 300, derive_seed(5, index))
            for index, (label, distribution, sizes, ratios) in enumerate(_SPREAD_CELLS)
        )
    return power_ordering_grid(name.removeprefix("power-"), 5, 300)


@pytest.mark.parametrize("grid", sorted(_GOLDEN))
def test_seeded_tallies_are_unchanged(grid):
    cells = run_grid(_golden_grid(grid), workers=1).cells
    assert [(c.rejections, c.error_count) for c in cells] == [(r, 0) for r in _GOLDEN[grid]]


def test_a_cell_whose_squares_overflow_is_scored_as_at_scale_1():
    # Values near 2**665 once made every replicate "too large"; a power-of-two scale changes no tally.
    tests = ("anova", "levene")
    huge, plain = (Scenario(name, "normal", (5, 5), ratios, None, tests, 0.05, 30, 3)
                   for name, ratios in (("huge", (1.0, 2.0**665)), ("plain", (2.0**-665, 1.0))))
    cells = run_grid((huge, plain)).cells
    assert [(c.rejections, c.error_count) for c in cells[:2]] == [(c.rejections, c.error_count) for c in cells[2:]]
    assert all(c.error_count == 0 for c in cells)


# The labels of the null-size acceptance check.
_CANONICAL = (
    "anova", "welch", "adaptive", "bartlett", "box-anderson", "levene:mean", "levene:median", "levene:trimmed",
    "levene:median:hines-hines", "levene:median:obrien", "trend:median:two-sided",
)


@pytest.mark.parametrize("distribution", ["normal", "student-t:3", "chi-squared:3"])
def test_sigma_ratios_times_2_to_the_600_either_way_change_no_tally(distribution):
    # A power of two scales every draw exactly, and the rescaled rows are the plain ones times a power of two.
    def scenario(name, factor):
        ratios = tuple(factor * r for r in (1.0, 2.0, 3.0))
        return Scenario(name, distribution, (6, 9, 12), ratios, None, _CANONICAL, 0.05, 600, 17)

    cells = run_grid([scenario("plain", 1.0), scenario("huge", 2.0**600), scenario("tiny", 2.0**-600)]).cells
    tallies = [(c.rejections, c.error_count) for c in cells]
    n = len(_CANONICAL)
    assert tallies[:n] == tallies[n : 2 * n] == tallies[2 * n :]
    assert sum(rejections for rejections, _ in tallies[:n]) > 0


def test_only_non_finite_draws_are_degenerate_at_a_tiny_df(monkeypatch):
    # At df 0.02 draws reach far past 1e154, where squares once overflowed,
    # and some are not finite.  In chunks of one replicate or of all, the
    # non-finite rows, and only they, are degenerate in every cell.
    tests = ("levene", "anova", "bartlett", "trend")
    scenario = Scenario("heavy", "student-t:0.02", (5, 5, 5), (1.0,) * 3, None, tests, 0.05, 200, derive_seed(2, 0))
    with np.errstate(all="ignore"):  # as in the simulator
        non_finite = int(sim._draw_chunk(scenario, 0, 200).degenerate.sum())
    assert 0 < non_finite < 200
    for chunk in (1, 512):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        assert [cell.error_count for cell in run_grid((scenario,)).cells] == [non_finite] * len(tests)
