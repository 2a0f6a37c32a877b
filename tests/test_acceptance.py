"""Acceptance gate: the quantitative guarantees the package ships with.

Every test here exercises one externally meaningful claim end to end —
reproducing the reference size table through the command line, exact
algebraic reductions, Monte Carlo power orderings, and the accuracy of
the tail functions against an arbitrary-precision oracle.  Each check
appends a PASS/FAIL line that pytest prints in its terminal summary, so
a run of this module doubles as a checklist.

All Monte Carlo checks run on fixed seeds and state their tolerances in
Monte Carlo standard errors (for a rate r over R replicates, the SE is
sqrt(r(1-r)/R)).  The module is slow by design: about two minutes of
simulation, with check 1 on two worker processes (check 8a shows the
worker count does not change the report).
"""

import csv
import math
import subprocess
import sys

import numpy as np
from mpmath import betainc, erfc, gammainc, mp, mpf
from mpmath import sqrt as mp_sqrt

from conftest import ACCEPTANCE_LOG
from vartests.means import anova_f, welch_anova
from vartests.numerics import (
    STUDENT_T,
    DistributionSpec,
    RngStream,
    chi_sq_sf,
    draw,
    f_sf,
    std_normal_sf,
)
from vartests.samples import GroupedSample
from vartests.sim import Scenario, run_grid
from vartests.spread import bartlett_m, box_anderson_b3, kurtosis_estimate, levene_test

mp.dps = 50


def _check(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    ACCEPTANCE_LOG.append(f"{name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def make_sample(*arrays):
    return GroupedSample(
        tuple((f"g{i + 1}", np.asarray(a, dtype=float)) for i, a in enumerate(arrays))
    )


# --------------------------------------------------------------------------
# 1. The table1 grid, run through the command line, must land within three
#    Monte Carlo standard errors of the reference sizes in every cell.
# --------------------------------------------------------------------------

REFERENCE_SIZES = {}


def _reference(sizes, ratios, anova, welch, adaptive):
    key = "table1-n{}-s{}".format(
        "-".join(str(n) for n in sizes), "-".join(format(r, "g") for r in ratios)
    )
    REFERENCE_SIZES[(key, "anova")] = anova
    REFERENCE_SIZES[(key, "welch")] = welch
    REFERENCE_SIZES[(key, "adaptive:median:0.15")] = adaptive


_reference((10, 10, 10), (1, 1, 1), 0.0481, 0.0485, 0.0496)
_reference((10, 10, 10), (1, 2, 3), 0.0665, 0.0518, 0.0572)
_reference((10, 10, 10), (1, 3, 5), 0.0665, 0.0530, 0.0539)
_reference((10, 10, 20), (1, 1, 1), 0.0512, 0.0514, 0.0546)
_reference((10, 10, 20), (1, 2, 3), 0.0264, 0.0524, 0.0514)
_reference((10, 10, 20), (1, 3, 5), 0.0230, 0.0529, 0.0529)
_reference((10, 20, 10), (1, 1, 1), 0.0491, 0.0494, 0.0523)
_reference((10, 20, 10), (1, 2, 3), 0.0714, 0.0495, 0.0554)
_reference((10, 20, 10), (1, 3, 5), 0.0867, 0.0524, 0.0528)
_reference((20, 10, 10), (1, 1, 1), 0.0542, 0.0557, 0.0572)
_reference((20, 10, 10), (1, 2, 3), 0.1212, 0.0506, 0.0564)
_reference((20, 10, 10), (1, 3, 5), 0.1399, 0.0515, 0.0520)


def test_1_table1_sizes_through_the_cli(tmp_path):
    """All 36 grid cells match the reference sizes within 3 MC SE."""
    out = tmp_path / "table1.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "vartests", "simulate",
            "--grid", "table1", "--reps", "10000",
            "--seed", "17", "--workers", "2", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = {}
    with open(out, newline="") as handle:
        for row in csv.DictReader(handle):
            got[(row["scenario"], row["test"])] = float(row["rejection_rate"])
            assert row["error_count"] == "0"
    assert set(got) == set(REFERENCE_SIZES)
    misses = []
    worst = 0.0
    for key, target in REFERENCE_SIZES.items():
        se = math.sqrt(target * (1.0 - target) / 10000.0)
        z = abs(got[key] - target) / se
        worst = max(worst, z)
        if z > 3.0:
            misses.append(f"{key[0]}/{key[1]}: got {got[key]:.4f} want {target:.4f}")
    _check(
        "1. table1 sizes via cmd_simulate, 36 cells within 3 MC SE",
        not misses,
        f"worst |z| = {worst:.2f}" + (f"; misses: {'; '.join(misses)}" if misses else ""),
    )


# --------------------------------------------------------------------------
# 2. With two groups the Welch ANOVA must reduce exactly to the Welch
#    two-sample t-test: F equals t^2 and the second degrees of freedom
#    equals the Welch-Satterthwaite value.
# --------------------------------------------------------------------------


def test_2_welch_reduces_to_two_sample_t():
    rng = np.random.default_rng(20)
    worst_f = worst_df = 0.0
    for _ in range(200):
        n1, n2 = (int(n) for n in rng.integers(3, 40, size=2))
        x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), size=n1)
        y = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), size=n2)
        v1 = x.var(ddof=1) / n1
        v2 = y.var(ddof=1) / n2
        t = (x.mean() - y.mean()) / math.sqrt(v1 + v2)
        ws_df = (v1 + v2) ** 2 / (v1**2 / (n1 - 1) + v2**2 / (n2 - 1))
        res = welch_anova(make_sample(x, y))
        worst_f = max(worst_f, abs(res.statistic - t * t) / max(1.0, t * t))
        worst_df = max(worst_df, abs(res.df2 - ws_df) / max(1.0, ws_df))
    _check(
        "2. k=2 Welch ANOVA equals squared Welch t (200 datasets, 1e-12)",
        worst_f <= 1e-12 and worst_df <= 1e-12,
        f"max rel diff: F {worst_f:.2e}, df {worst_df:.2e}",
    )


# --------------------------------------------------------------------------
# 3. Hand-checkable micro example.
# --------------------------------------------------------------------------


def test_3_hand_worked_micro_example():
    sample = make_sample([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
    lev = levene_test(sample, center="mean")
    classic = anova_f(sample)
    ok = (
        abs(lev.statistic - 0.8) <= 1e-12
        and lev.df1 == 1.0
        and lev.df2 == 4.0
        and abs(classic.statistic - 2.4) <= 1e-12
    )
    _check(
        "3. micro oracle: Levene(mean) F=0.8 with df (1,4); ANOVA F=2.4",
        ok,
        f"got F_lev={lev.statistic!r}, df=({lev.df1:g},{lev.df2:g}), F={classic.statistic!r}",
    )


# --------------------------------------------------------------------------
# 4. Against increasing-spread alternatives the one-sided trend test must
#    beat the same-center homogeneity test by more than three combined
#    Monte Carlo standard errors, for every center kind.
# --------------------------------------------------------------------------


def test_4_trend_beats_homogeneity_on_monotone_spread():
    tests = (
        "levene:mean", "levene:median", "levene:trimmed",
        "trend:mean:increasing", "trend:median:increasing", "trend:trimmed:increasing",
    )
    scenarios = [
        Scenario(
            name=f"power-s{int(r3)}",
            distribution="normal",
            group_sizes=(10, 10, 10),
            sigma_ratios=(1.0, r2, r3),
            mean_shifts=None,
            tests=tests,
            nominal_level=0.05,
            replications=10000,
            master_seed=seed,
        )
        for r2, r3, seed in ((2.0, 3.0, 407), (3.0, 5.0, 409))
    ]
    report = run_grid(scenarios)
    failures = []
    min_margin = math.inf
    for scen in ("power-s3", "power-s5"):
        for center in ("mean", "median", "trimmed"):
            lev = report.cell(scen, f"levene:{center}:none")
            trd = report.cell(scen, f"trend:{center}:increasing")
            gap = trd.rejection_rate - lev.rejection_rate
            need = 3.0 * math.hypot(lev.mc_standard_error, trd.mc_standard_error)
            min_margin = min(min_margin, gap - need)
            if gap <= need:
                failures.append(f"{scen}/{center}: gap {gap:.4f} <= {need:.4f}")
    _check(
        "4. one-sided trend power > homogeneity power (3 centers x 2 ratios)",
        not failures,
        f"smallest gap clears the bar by {min_margin:.4f}"
        + (f"; {'; '.join(failures)}" if failures else ""),
    )


# --------------------------------------------------------------------------
# 5. Small samples, n_i = 5: the uncorrected median-center test runs
#    conservative under normal data, the tied/zero-deviation correction
#    moves the size toward nominal, and mean centers under skewed
#    chi-squared(3) data run anticonservative.
# --------------------------------------------------------------------------


def test_5_small_sample_level_behavior():
    report = run_grid(
        [
            Scenario(
                name="small-normal", distribution="normal", group_sizes=(5, 5, 5),
                sigma_ratios=(1, 1, 1), mean_shifts=None,
                tests=("levene:median", "levene:median:hines-hines"),
                nominal_level=0.05, replications=10000, master_seed=505,
            ),
            Scenario(
                name="small-chisq", distribution="chi-squared:3", group_sizes=(5, 5, 5),
                sigma_ratios=(1, 1, 1), mean_shifts=None,
                tests=("levene:mean",),
                nominal_level=0.05, replications=10000, master_seed=506,
            ),
        ]
    )
    plain = report.cell("small-normal", "levene:median:none")
    fixed = report.cell("small-normal", "levene:median:hines-hines")
    skewed = report.cell("small-chisq", "levene:mean:none")
    conservative = plain.rejection_rate < 0.05 - 3.0 * plain.mc_standard_error
    closer = abs(fixed.rejection_rate - 0.05) < abs(plain.rejection_rate - 0.05)
    anticonservative = skewed.rejection_rate > 0.05 + 3.0 * skewed.mc_standard_error
    _check(
        "5. n=5 levels: median conservative, correction closer, skewed mean-center inflated",
        conservative and closer and anticonservative,
        f"plain {plain.rejection_rate:.4f}, corrected {fixed.rejection_rate:.4f}, "
        f"chi-squared mean-center {skewed.rejection_rate:.4f}",
    )


# --------------------------------------------------------------------------
# 6. Whenever the pooled kurtosis estimate exceeds 3, the kurtosis-adjusted
#    statistic must come out strictly below the unadjusted one.
# --------------------------------------------------------------------------


def test_6_kurtosis_adjustment_shrinks_heavy_tailed_statistics():
    heavy = DistributionSpec(STUDENT_T, shape=3.0)
    kept = tried = violations = 0
    while kept < 1000:
        rng = RngStream(606, tried).generator()
        tried += 1
        sample = make_sample(*(draw(heavy, 30, rng) for _ in range(3)))
        if kurtosis_estimate(sample) <= 3.0:
            continue
        kept += 1
        if not box_anderson_b3(sample).statistic < bartlett_m(sample).statistic:
            violations += 1
    _check(
        "6. B3 < M on 1000 heavy-tailed datasets with kurtosis > 3",
        violations == 0,
        f"{violations} violations; needed {tried} draws for {kept} qualifying datasets",
    )


# --------------------------------------------------------------------------
# 7. Tail probabilities agree with a 50-digit oracle to 1e-10 absolute on a
#    200-point grid covering df 1..100 and tail levels 1e-8 .. 1 - 1e-8.
#    Grid abscissas come from scipy's inverse survival functions; both
#    implementations are then evaluated at identical points.
# --------------------------------------------------------------------------


def test_7_tail_functions_match_high_precision_oracle():
    from scipy import stats

    rng = np.random.default_rng(20260814)
    levels = np.geomspace(1e-8, 0.5, 40).tolist()
    levels += (1.0 - np.geomspace(1e-8, 0.5, 40))[::-1].tolist()

    def pick_level():
        return levels[int(rng.integers(0, len(levels)))]

    worst = {"f": 0.0, "chi2": 0.0, "normal": 0.0}
    count = 0
    while count < 80:
        d1 = int(rng.integers(1, 101))
        d2 = int(rng.integers(1, 101))
        x = float(stats.f.isf(pick_level(), d1, d2))
        if not (np.isfinite(x) and x > 0):
            continue
        oracle = betainc(
            mpf(d2) / 2, mpf(d1) / 2, 0, mpf(d2) / (mpf(d2) + mpf(d1) * mpf(x)),
            regularized=True,
        )
        worst["f"] = max(worst["f"], abs(f_sf(x, d1, d2) - float(oracle)))
        count += 1
    count = 0
    while count < 60:
        k = int(rng.integers(1, 101))
        x = float(stats.chi2.isf(pick_level(), k))
        if not (np.isfinite(x) and x > 0):
            continue
        oracle = gammainc(mpf(k) / 2, mpf(x) / 2, mp.inf, regularized=True)
        worst["chi2"] = max(worst["chi2"], abs(chi_sq_sf(x, k) - float(oracle)))
        count += 1
    for _ in range(60):
        x = float(stats.norm.isf(pick_level()))
        oracle = erfc(mpf(x) / mp_sqrt(2)) / 2
        worst["normal"] = max(worst["normal"], abs(std_normal_sf(x) - float(oracle)))
    _check(
        "7. f_sf/chi_sq_sf/std_normal_sf within 1e-10 of a 50-digit oracle (200 points)",
        all(err <= 1e-10 for err in worst.values()),
        "worst abs err: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()),
    )


# --------------------------------------------------------------------------
# 8. Infrastructure invariants at simulation scale.  The unit-scale
#    invariants (location/scale invariance, label grammar, report algebra,
#    error taxonomy) live in the per-module test files; the two checks that
#    need real simulation time run here.  8b holds every registry label to
#    the null size its method documents: nominal 0.05 for nine labels, and
#    an independently simulated Brown-Forsythe reference for the two
#    uncorrected median-center labels, which run conservative by design.
# --------------------------------------------------------------------------


def test_8a_simulate_is_deterministic_across_worker_counts(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "scenario = determinism\n"
        "group_sizes = 5, 5\n"
        "sigma_ratios = 1, 2\n"
        "tests = welch, levene:median\n"
        "replications = 600\n"
    )
    outputs = []
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "vartests", "simulate",
                "--grid", str(grid), "--seed", "5",
                "--workers", workers, "--out", str(out),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    _check(
        "8a. cmd_simulate output is byte-identical for 1 and 2 workers",
        outputs[0] == outputs[1],
    )


# The uncorrected median-center Levene test (Brown-Forsythe) is
# conservative at small n; O'Brien's rescaling is a common factor at equal
# group sizes, so it leaves that test's F statistic unchanged.
BROWN_FORSYTHE_LABELS = ("levene:median:none", "levene:median:obrien")


def brown_forsythe_null_size(k, n, replications, seed):
    """Rate and MC SE at level 0.05 of the median-center Levene F test.

    An independent reference for check 8b: k groups of n standard normal
    draws, absolute deviations from each group's median, a one-way F test
    on the deviations referred to F(k - 1, k n - k).  Uses only numpy and
    scipy, never the package under test, and draws in chunks to bound
    memory.
    """
    from scipy import stats

    chunk = 25_000
    rng = np.random.default_rng(seed)
    rejections = 0
    for start in range(0, replications, chunk):
        m = min(chunk, replications - start)
        x = rng.standard_normal((m, k, n))
        z = np.abs(x - np.median(x, axis=2, keepdims=True))
        group_means = z.mean(axis=2)
        grand_mean = group_means.mean(axis=1, keepdims=True)
        between = n * ((group_means - grand_mean) ** 2).sum(axis=1) / (k - 1)
        within = ((z - group_means[:, :, None]) ** 2).sum(axis=(1, 2)) / (k * n - k)
        p = stats.f.sf(between / within, k - 1, k * n - k)
        rejections += int(np.count_nonzero(p < 0.05))
    rate = rejections / replications
    return rate, math.sqrt(rate * (1.0 - rate) / replications)


def test_8b_null_sizes_at_n20_for_every_registry_test():
    """Every test label within 4 MC SE of its documented size at n_i=20.

    Nine labels promise nominal size under normal data and are held to
    0.05 +/- 4 MC SE of the cell.  The uncorrected median-center test
    (and its O'Brien variant, identical at equal group sizes) promises
    only conservatism, which the Hines-Hines correction exists to
    repair; its true size here is about 0.038.  Those two labels are
    held to an independent numpy/scipy simulation of the same procedure
    at 200,000 replications, within 4 SE of the difference, and both the
    reference and the cell rate must sit more than 3 SE below 0.05.
    """
    labels = (
        "anova", "welch", "adaptive", "bartlett", "box-anderson",
        "levene:mean", "levene:median", "levene:trimmed",
        "levene:median:hines-hines", "levene:median:obrien",
        "trend:median:two-sided",
    )
    report = run_grid(
        [
            Scenario(
                name="null-20", distribution="normal", group_sizes=(20, 20, 20),
                sigma_ratios=(1, 1, 1), mean_shifts=None, tests=labels,
                nominal_level=0.05, replications=10000, master_seed=808,
            )
        ]
    )
    ref_rate, ref_se = brown_forsythe_null_size(3, 20, 200_000, seed=20261018)
    tested = sorted(label for _, label in report.rates())
    assert len(tested) == len(labels) and set(BROWN_FORSYTHE_LABELS) <= set(tested)
    misses = []
    if not ref_rate < 0.05 - 3.0 * ref_se:
        misses.append(f"reference {ref_rate:.4f} not conservative")
    for label in tested:
        cell = report.cell("null-20", label)
        rate, se = cell.rejection_rate, cell.mc_standard_error
        if label in BROWN_FORSYTHE_LABELS:
            target, name = ref_rate, "Brown-Forsythe reference"
            half = 4.0 * math.hypot(se, ref_se)
            if not rate < 0.05 - 3.0 * se:
                misses.append(f"{label}: {rate:.4f} not below 0.05 by 3 SE")
        else:
            target, name = 0.05, "nominal"
            half = 4.0 * se
        if abs(rate - target) > half:
            misses.append(
                f"{label}: {rate:.4f} outside {name} "
                f"[{target - half:.4f}, {target + half:.4f}]"
            )
    _check(
        "8b. null sizes at n=20 within 4 MC SE of each label's documented size: "
        f"0.05 for {len(tested) - len(BROWN_FORSYTHE_LABELS)} labels, the "
        f"Brown-Forsythe reference {ref_rate:.4f} (conservative) for "
        + " and ".join(BROWN_FORSYTHE_LABELS),
        not misses,
        "; ".join(misses) or "all in band",
    )
