"""Simulation harness: determinism, tallies, label grammar, and grids."""

import math
import os
import warnings

import pytest

import vartests.sim as sim
from vartests import (
    PreliminaryLevelWarning,
    Scenario,
    ValidationError,
    cli,
    compile_test_label,
    derive_seed,
    power_ordering_grid,
    run_grid,
    samples,
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


def _tallies(report):
    return [(c.scenario.name, c.test, c.rejections, c.error_count) for c in report.cells]


class TestLabels:
    def test_bare_and_canonical(self):
        assert compile_test_label("anova") == "anova"
        assert compile_test_label("welch") == "welch"
        assert compile_test_label("bartlett") == "bartlett"
        assert compile_test_label("box-anderson") == "box-anderson"
        assert compile_test_label("levene") == "levene:median:none"
        assert compile_test_label("levene:mean") == "levene:mean:none"
        assert compile_test_label("levene:median:hines-hines") == "levene:median:hines-hines"
        assert compile_test_label("trend") == "trend:median:increasing"
        assert compile_test_label("trend:trimmed:two-sided") == "trend:trimmed:two-sided"
        assert compile_test_label("adaptive") == "adaptive:median:0.15"
        assert compile_test_label("adaptive:mean:0.25") == "adaptive:mean:0.25"

    def test_a_trimmed_center_may_carry_its_proportion(self):
        assert compile_test_label("levene:trimmed=0.1") == "levene:trimmed=0.1:none"
        assert compile_test_label(" trend : trimmed = 0.1 : two-sided ") == "trend:trimmed=0.1:two-sided"
        assert compile_test_label("adaptive:trimmed=1e-1:0.2") == "adaptive:trimmed=0.1:0.2"
        assert compile_test_label("levene:trimmed=-0.0:obrien") == "levene:trimmed=0.0:obrien"
        # 0.25 is the default, so every label written before the proportion existed keeps its form
        assert compile_test_label("levene:trimmed=0.25") == compile_test_label("levene:trimmed") == "levene:trimmed:none"
        test = sim._compile("trend:trimmed=0.1")
        assert (test.family, test.center, test.option) == ("trend", samples.trimmed(0.1), "increasing")

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
            "levene:trimmed=",
            "levene:trimmed=0.5",
            "levene:trimmed=-0.1",
            "levene:trimmed=nan",
            "levene:trimmed=x",
            "levene:median=0.1",
            "trend:mean=0.25",
        ):
            with pytest.raises(ValidationError):
                compile_test_label(bad)

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

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(group_sizes=("a", 8, 8)),
            dict(group_sizes=(5.7, 8, 8)),
            dict(group_sizes=8),
            dict(sigma_ratios=("x", 1.0, 1.0)),
            dict(sigma_ratios=3),
            dict(mean_shifts=(None, 0.0, 0.0)),
            dict(nominal_level="abc"),
            dict(replications=True),
            dict(master_seed=True),
            dict(tests=5),
            dict(tests=("levene:mean:hines-hines",)),
        ],
        ids=repr,
    )
    def test_malformed_values_raise_validation_error(self, overrides):
        with pytest.raises(ValidationError):
            null_scenario(**overrides)

    @pytest.mark.parametrize(
        "field, value",
        [("tests", "anova"), ("group_sizes", "55"), ("sigma_ratios", "111"), ("mean_shifts", "000")],
    )
    def test_a_string_in_place_of_a_list_is_refused_by_name(self, field, value):
        named = field.replace("_", " ")
        with pytest.raises(ValidationError, match=f"^scenario 'null' {named} must be a sequence, not the string '{value}'$"):
            null_scenario(**{field: value})

    def test_a_piece_that_does_not_convert_keeps_the_converters_message(self):
        with pytest.raises(ValidationError, match="^scenario 'null' sigma ratios: could not convert string to float: 'y'$"):
            null_scenario(sigma_ratios=("1", "y", "1"))
        assert null_scenario(group_sizes=("8", 8.0, 8)).group_sizes == (8, 8, 8)

    @pytest.mark.parametrize("workers", [0, True, 2.0])
    def test_run_grid_rejects_a_worker_count_that_is_not_a_positive_int(self, workers):
        with pytest.raises(ValidationError):
            run_grid((null_scenario(),), workers=workers)

    @pytest.mark.parametrize("sizes, group", [((2, 8, 8), "g1"), ((2, 5, 9), "g1"), ((8, 8, 2), "g3")])
    def test_configuration_errors_come_before_any_draw(self, monkeypatch, sizes, group):
        # The chunk path alone scores groups of 2 under Hines-Hines without complaint.
        def no_draw(*args):
            raise AssertionError("a replicate was drawn")

        monkeypatch.setattr(sim, "_draw_chunk", no_draw)
        fine = null_scenario(name="fine")
        bad = null_scenario(name="bad", group_sizes=sizes, tests=("anova", "levene:median:hines-hines"))
        message = f"scenario 'bad': test 'levene:median:hines-hines': group '{group}' has size 2; this test needs at least 3"
        for workers in (1, 2):
            with pytest.raises(ValidationError) as caught:
                run_grid((fine, bad), workers=workers)
            assert str(caught.value) == message

    def test_each_label_is_compiled_once_per_scenario(self, monkeypatch):
        compiled, compile_label = [], sim._compile

        def counted(label):
            compiled.append(label)
            return compile_label(label)

        monkeypatch.setattr(sim, "_compile", counted)
        tests = ("adaptive:median:0.5", "levene:median:hines-hines", "trend")
        with pytest.warns(PreliminaryLevelWarning) as caught:
            sc = null_scenario(tests=tests, replications=1300)
        assert len(caught) == 1
        assert compiled == list(tests)
        for workers in (1, 2):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                run_grid((sc,), workers=workers)
        assert compiled == list(tests)

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

    def test_worker_count_is_capped_by_replicates_and_cpus(self, monkeypatch):
        # Every fork fails, so each run counts its workers and then runs their spans here.
        one_chunk = null_scenario(replications=400)
        three_chunks = null_scenario(name="three", replications=1300)
        forks = []

        def no_fork():
            forks.append(None)
            raise OSError("no process to spare")

        cases = [  # (usable CPUs, scenarios, --workers, forks)
            (8, (one_chunk,), 5000, 0),
            (8, (one_chunk, three_chunks), 5000, 4),  # ceil(1700 / 512) replicate chunks
            (8, (three_chunks,), 2, 2),
            (2, (three_chunks,), 5000, 2),
            (1, (three_chunks,), 5000, 0),
        ]
        for cpus, scenarios, workers, want in cases:
            in_process = _tallies(run_grid(scenarios))
            with monkeypatch.context() as mp:
                mp.setattr(sim, "_usable_cpus", lambda: cpus)
                mp.setattr(os, "fork", no_fork)
                forks.clear()
                assert _tallies(run_grid(scenarios, workers=workers)) == in_process
            assert len(forks) == want, (cpus, workers)

    def test_usable_cpus_follow_the_affinity_mask_else_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr(sim.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        monkeypatch.setattr(sim.os, "cpu_count", lambda: 8)
        assert sim._usable_cpus() == 2
        monkeypatch.delattr(sim.os, "sched_getaffinity")
        assert sim._usable_cpus() == 8
        monkeypatch.setattr(sim.os, "cpu_count", lambda: None)
        assert sim._usable_cpus() == 1

    def test_at_most_one_chunk_of_replicates_in_all_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("512 replicates or fewer must run in this process")

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(os, "fork", no_fork)
        # like the benchmark's set-up command: one replicate per scenario
        one_each = [null_scenario(name=f"s{i}", replications=1) for i in range(3)]
        assert [c.replications for c in run_grid(one_each, workers=2).cells] == [1] * 6
        split = [null_scenario(name="a", replications=300), null_scenario(name="b", replications=212)]
        assert [c.replications for c in run_grid(split, workers=5000).cells] == [300, 300, 212, 212]

    def test_one_chunk_scenarios_are_dealt_to_forked_workers(self, monkeypatch, tmp_path):
        # table1 at 250 replicates: 12 one-chunk scenarios, 3,000 replicates in all.
        real_fork, forks = os.fork, []

        def counted_fork():
            pid = real_fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", counted_fork)
        outputs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            argv = ["simulate", "--grid", "table1", "--seed", "7", "--reps", "250", "--workers", workers]
            assert cli.main([*argv, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert len(forks) == 2
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        a = run_grid((null_scenario(),))
        b = run_grid((null_scenario(master_seed=999),))
        assert [c.rejections for c in a.cells] != [c.rejections for c in b.cells]


class TestWorkerFaults:
    """A worker that dies or raises leaves the CLI's exit contract and output as at one worker."""

    def _simulate(self, tmp_path, workers, capfd):
        out = tmp_path / f"w{workers}.csv"
        argv = ["simulate", "--grid", "table1", "--seed", "3", "--reps", "60", "--workers", workers, "--out", str(out)]
        code = cli.main(argv)
        return code, out.read_bytes() if code == 0 else None, capfd.readouterr().err

    def test_a_worker_that_leaves_before_writing_gives_the_one_worker_cells(self, tmp_path, monkeypatch, capfd):
        parent, run_spans = os.getpid(), sim._run_spans

        def leave_in_workers(spans):
            if os.getpid() != parent:
                os._exit(0)
            return run_spans(spans)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_run_spans", leave_in_workers)
        one = self._simulate(tmp_path, "1", capfd)
        two = self._simulate(tmp_path, "2", capfd)
        assert one == two
        assert one[0] == 0 and one[2] == ""

    @pytest.mark.parametrize("error, code", [(ValidationError, 2), (ArithmeticError, 3)])
    def test_an_error_raised_in_a_worker_is_the_one_worker_error(self, tmp_path, monkeypatch, capfd, error, code):
        # 12 one-chunk spans dealt to two workers: span 5 goes to the second,
        # span 8 to the first, and span 5 comes first in scenario order.
        names = [s.name for s in table1_grid(3, 60)]
        failing = {names[5]: "first", names[8]: "second"}
        run_span = sim._run_span

        def raising(scenario, start, stop):
            if scenario.name in failing:
                raise error(f"span of {scenario.name} fails {failing[scenario.name]}")
            return run_span(scenario, start, stop)

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_run_span", raising)
        one = self._simulate(tmp_path, "1", capfd)
        two = self._simulate(tmp_path, "2", capfd)
        assert one == two
        assert one == (code, None, f"error: span of {names[5]} fails first\n")

    def test_a_chunk_that_cannot_be_allocated_names_the_scenario(self, tmp_path, monkeypatch, capfd):
        def out_of_memory(dist, sizes, rows, generators):
            raise MemoryError(f"Unable to allocate an array with shape ({rows}, {sum(sizes)})")

        monkeypatch.setattr(sim, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sim, "_draw_rows", out_of_memory)
        one = self._simulate(tmp_path, "1", capfd)
        two = self._simulate(tmp_path, "2", capfd)
        assert one == two
        name = table1_grid(3, 60)[0].name
        message = f"cannot allocate a chunk of 60 replicates of 30 values: Unable to allocate an array with shape (60, 30)"
        assert one == (2, None, f"error: scenario {name!r}: {message}\n")


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

    def test_power_grid_keeps_a_trimmed_center_s_proportion(self):
        scenarios = power_ordering_grid(samples.trimmed(0.1), master_seed=7, replications=50)
        assert {test.center.trim_proportion for s in scenarios for test in s._compiled} == {0.1}
        assert all(s.tests == ("levene:trimmed=0.1:none", "trend:trimmed=0.1:increasing") for s in scenarios)
        default = power_ordering_grid(samples.trimmed(), master_seed=7, replications=50)
        assert [s.name for s in default] == [s.name for s in scenarios]
        assert all(s.tests == ("levene:trimmed:none", "trend:trimmed:increasing") for s in default)

    def test_power_study_runs(self):
        report = run_grid(power_ordering_grid("median", master_seed=11, replications=30))
        assert len(report.cells) == 48
        assert report.cell(report.cells[0].scenario.name, "levene:median:none")

    def test_run_grid_rejects_duplicate_names(self):
        sc = null_scenario()
        with pytest.raises(ValidationError):
            run_grid((sc, sc))
