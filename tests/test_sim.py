"""Simulation harness: determinism, tallies, label grammar, and grids."""

import concurrent.futures
import math

import pytest

import vartests.sim as sim
from vartests import (
    PreliminaryLevelWarning,
    Scenario,
    ValidationError,
    compile_test_label,
    derive_seed,
    power_ordering_grid,
    run_grid,
    table1_grid,
)


def null_scenario(**overrides):
    settings = dict(
        name="null",
        distribution="normal",
        group_sizes=(8, 8, 8),
        sigma_ratios=(1.0, 1.0, 1.0),
        mean_shifts=None,
        tests=("anova", "levene:median"),
        nominal_level=0.05,
        replications=400,
        master_seed=20240101,
    )
    settings.update(overrides)
    return Scenario(**settings)


class TestLabels:
    def test_bare_and_canonical(self):
        assert compile_test_label("anova")[0] == "anova"
        assert compile_test_label("welch")[0] == "welch"
        assert compile_test_label("bartlett")[0] == "bartlett"
        assert compile_test_label("box-anderson")[0] == "box-anderson"
        assert compile_test_label("levene")[0] == "levene:median:none"
        assert compile_test_label("levene:mean")[0] == "levene:mean:none"
        assert compile_test_label("levene:median:hines-hines")[0] == "levene:median:hines-hines"
        assert compile_test_label("trend")[0] == "trend:median:increasing"
        assert compile_test_label("trend:trimmed:two-sided")[0] == "trend:trimmed:two-sided"
        assert compile_test_label("adaptive")[0] == "adaptive:median:0.15"
        assert compile_test_label("adaptive:mean:0.25")[0] == "adaptive:mean:0.25"

    def test_rejects_bad_labels(self):
        for bad in (
            "anova:mean",
            "levene:mode",
            "levene:median:winsor",
            "trend:median:upward",
            "adaptive:median:zero",
            "tukey",
            "",
            "levene:median:none:extra",
            "levene:median:",
            "trend:median:",
            "adaptive:median:",
            "levene::none",
        ):
            with pytest.raises(ValidationError):
                compile_test_label(bad)

    def test_runners_return_pvalues(self):
        import numpy as np

        from vartests import GroupedSample

        rng = np.random.default_rng(42)
        sample = GroupedSample(tuple((f"g{i}", rng.normal(size=12)) for i in range(3)))
        for label in ("anova", "welch", "bartlett", "box-anderson", "levene:mean:obrien",
                      "trend:mean:decreasing", "adaptive:median:0.15"):
            _, runner = compile_test_label(label)
            p = runner(sample)
            assert 0.0 <= p <= 1.0

    def test_nonstandard_adaptive_level_warns_once_at_compile(self):
        with pytest.warns(PreliminaryLevelWarning):
            compile_test_label("adaptive:median:0.5")


class TestScenarioValidation:
    def test_canonicalizes_tests(self):
        sc = null_scenario(tests=("levene", "trend:mean"))
        assert sc.tests == ("levene:median:none", "trend:mean:increasing")

    def test_rejects_bad_configs(self):
        with pytest.raises(ValidationError):
            null_scenario(group_sizes=(8,))
        with pytest.raises(ValidationError):
            null_scenario(group_sizes=(8, 8, 1))
        with pytest.raises(ValidationError):
            null_scenario(sigma_ratios=(1.0, 2.0))
        with pytest.raises(ValidationError):
            null_scenario(sigma_ratios=(1.0, -1.0, 1.0))
        with pytest.raises(ValidationError):
            null_scenario(mean_shifts=(0.0,))
        with pytest.raises(ValidationError):
            null_scenario(tests=())
        with pytest.raises(ValidationError):
            null_scenario(tests=("anova", "anova"))
        with pytest.raises(ValidationError):
            null_scenario(nominal_level=0.0)
        with pytest.raises(ValidationError):
            null_scenario(replications=0)
        with pytest.raises(ValidationError):
            null_scenario(distribution="cauchy")
        with pytest.raises(ValidationError):
            null_scenario(master_seed=-1)

    def test_distribution_tokens(self):
        null_scenario(distribution="student-t:3")
        null_scenario(distribution="chi-squared:5")
        null_scenario(distribution="exponential")
        with pytest.raises(ValidationError):
            null_scenario(distribution="normal:3")
        with pytest.raises(ValidationError):
            null_scenario(distribution="student-t:abc")

    def test_too_small_groups_for_label_fail_fast(self):
        # Hines-Hines needs n >= 3; the scenario should fail at submission,
        # not on replicate one.
        sc = null_scenario(group_sizes=(2, 8, 8), tests=("levene:median:hines-hines",))
        with pytest.raises(ValidationError):
            run_grid((sc,))


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_grid((null_scenario(),))
        b = run_grid((null_scenario(),))
        assert [(c.test, c.rejections, c.error_count) for c in a.cells] == [
            (c.test, c.rejections, c.error_count) for c in b.cells
        ]

    def test_worker_count_does_not_matter(self):
        # 3 chunks worth of replicates split across 1 and 2 workers.
        sc = null_scenario(replications=1300)
        a = run_grid((sc,), workers=1)
        b = run_grid((sc,), workers=2)
        assert [(c.rejections, c.error_count) for c in a.cells] == [
            (c.rejections, c.error_count) for c in b.cells
        ]

    def test_pool_size_is_capped_by_chunks_and_cpus(self, monkeypatch):
        one_chunk = null_scenario(replications=400)
        three_chunks = null_scenario(name="three", replications=1300)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        assert sim._pool_size((one_chunk,), 5000) == 1
        assert sim._pool_size((one_chunk, three_chunks), 5000) == 3
        assert sim._pool_size((three_chunks,), 2) == 2
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
        assert sim._pool_size((three_chunks,), 5000) == 2
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert sim._pool_size((three_chunks,), 5000) == 1

    def test_capped_pool_of_one_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single chunk must not start a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        report = run_grid((null_scenario(),), workers=5000)
        assert [c.replications for c in report.cells] == [400, 400]

    def test_different_seeds_differ(self):
        a = run_grid((null_scenario(),))
        b = run_grid((null_scenario(master_seed=999),))
        assert [c.rejections for c in a.cells] != [c.rejections for c in b.cells]


class TestTallies:
    def test_counts_are_coherent(self):
        report = run_grid((null_scenario(replications=500),))
        for cell in report.cells:
            assert 0 <= cell.rejections <= cell.valid_replications
            assert cell.rejections + cell.error_count <= cell.replications
            assert cell.mc_standard_error == pytest.approx(
                math.sqrt(cell.rejection_rate * (1 - cell.rejection_rate) / cell.valid_replications)
            )

    def test_no_errors_on_continuous_data(self):
        report = run_grid((null_scenario(replications=300, tests=(
            "anova", "welch", "bartlett", "levene:mean", "levene:median:hines-hines", "trend:median")),))
        for cell in report.cells:
            assert cell.error_count == 0

    def test_degenerate_replicates_are_tallied_not_silently_scored(self):
        # With groups of size 2 and median centers every replicate's
        # deviations are tied pairs, so the Levene F is 0/0 every time.
        sc = null_scenario(group_sizes=(2, 2, 2), tests=("levene:median",), replications=50)
        report = run_grid((sc,))
        cell = report.cells[0]
        assert cell.error_count == 50
        assert cell.rejections == 0
        assert math.isnan(cell.rejection_rate)
        assert math.isnan(cell.mc_standard_error)

    def test_standard_error_is_over_valid_replicates(self):
        cell = sim.CellResult(null_scenario(), "anova", rejections=35, error_count=50)
        assert cell.valid_replications == 350
        assert cell.rejection_rate == 0.1
        assert cell.mc_standard_error == math.sqrt(0.1 * 0.9 / 350)

    def test_null_rejection_rate_is_sane(self):
        report = run_grid((null_scenario(replications=2000, tests=("anova", "welch")),))
        for cell in report.cells:
            # 2000 reps: SE ~ 0.005, so 0.05 +- 5 SE is a generous sanity band.
            assert 0.025 <= cell.rejection_rate <= 0.075


class TestGrids:
    def test_table1_shape(self):
        scenarios = table1_grid(master_seed=42, replications=100)
        assert len(scenarios) == 12
        assert {s.tests for s in scenarios} == {("anova", "welch", "adaptive:median:0.15")}
        assert {s.group_sizes for s in scenarios} == {
            (10, 10, 10), (10, 10, 20), (10, 20, 10), (20, 10, 10)}
        assert {s.sigma_ratios for s in scenarios} == {
            (1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 3.0, 5.0)}
        assert len({s.name for s in scenarios}) == 12
        assert all(s.nominal_level == 0.05 for s in scenarios)

    def test_table1_seeds_derive_from_grid_seed(self):
        a = table1_grid(master_seed=42, replications=100)
        b = table1_grid(master_seed=42, replications=100)
        c = table1_grid(master_seed=43, replications=100)
        assert [s.master_seed for s in a] == [s.master_seed for s in b]
        assert [s.master_seed for s in a] != [s.master_seed for s in c]
        assert a[0].master_seed == derive_seed(42, 0)

    def test_power_grid_shape(self):
        scenarios = power_ordering_grid("median", master_seed=7, replications=50)
        assert len(scenarios) == 24
        assert all(s.tests == ("levene:median:none", "trend:median:increasing") for s in scenarios)
        families = {s.distribution for s in scenarios}
        assert families == {"normal", "student-t:3", "chi-squared:3", "exponential"}

    def test_power_grids_share_data_across_centers(self):
        # Same grid seed => the same per-scenario master seeds for every
        # center, so center comparisons are paired on identical data.
        a = power_ordering_grid("mean", master_seed=7, replications=50)
        b = power_ordering_grid("trimmed", master_seed=7, replications=50)
        assert [s.master_seed for s in a] == [s.master_seed for s in b]

    def test_power_study_runs(self):
        report = run_grid(power_ordering_grid("median", master_seed=11, replications=30))
        assert len(report.cells) == 48
        assert report.cell(report.cells[0].scenario.name, "levene:median:none")

    def test_run_grid_rejects_duplicate_names(self):
        sc = null_scenario()
        with pytest.raises(ValidationError):
            run_grid((sc, sc))
