"""Command-line interface: formats, exit codes, and reproducible output."""

import contextlib
import csv
import errno
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from test_batch import LABELS
from vartests import PreliminaryLevelWarning, cli, numerics, samples, sim, spread, trend
from vartests.errors import ValidationError
from vartests.sim import compile_test_label

CLI = [sys.executable, "-m", "vartests"]


def run_cli(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


class _FullStream(io.TextIOBase):
    """A text stream that fails every write, as a full device does; its descriptor is that of a scratch file."""

    def __init__(self, fd):
        self._fd = fd

    def fileno(self):
        return self._fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture()
def toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("group,value\na,1\na,2\na,3\nb,2\nb,4\nb,6\n")
    return str(path)


@pytest.fixture()
def three_group_csv(tmp_path):
    path = tmp_path / "three.csv"
    rows = ["group,value"]
    data = {
        "low": [9.8, 10.1, 10.3, 9.9, 10.0, 10.2],
        "mid": [9.5, 10.6, 10.9, 9.2, 10.1, 9.8],
        "high": [8.1, 12.2, 11.8, 7.9, 10.4, 9.5],
    }
    for label, values in data.items():
        rows.extend(f"{label},{v}" for v in values)
    path.write_text("\n".join(rows) + "\n")
    return str(path)


class TestTestCommand:
    def test_levene_mean_oracle(self, toy_csv):
        proc = run_cli("test", "--input", toy_csv, "--method", "levene", "--center", "mean")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["method"] == "levene"
        assert abs(doc["statistic"] - 0.8) <= 1e-12
        assert doc["df1"] == 1.0 and doc["df2"] == 4.0
        assert doc["center"] == "mean"
        assert doc["correction"] == "none"
        assert [g["label"] for g in doc["groups"]] == ["a", "b"]
        assert doc["warnings"] == []

    def test_bfl_is_levene_median(self, toy_csv):
        via_alias = run_cli("test", "--input", toy_csv, "--method", "bfl")
        via_flags = run_cli("test", "--input", toy_csv, "--method", "levene", "--center", "median")
        assert via_alias.returncode == via_flags.returncode == 0
        assert via_alias.stdout == via_flags.stdout

    def test_trimmed_is_levene_trimmed(self, three_group_csv):
        via_alias = run_cli("test", "--input", three_group_csv, "--method", "trimmed")
        via_flags = run_cli("test", "--input", three_group_csv, "--method", "levene", "--center", "trimmed")
        assert via_alias.stdout == via_flags.stdout
        doc = json.loads(via_alias.stdout)
        assert doc["center"] == "trimmed"
        assert doc["trim_proportion"] == 0.25

    def test_alias_center_conflicts_are_usage_errors(self, toy_csv):
        proc = run_cli("test", "--input", toy_csv, "--method", "bfl", "--center", "mean")
        assert proc.returncode == 2
        proc = run_cli("test", "--input", toy_csv, "--method", "trimmed", "--center", "median")
        assert proc.returncode == 2

    def test_bartlett_and_box_anderson(self, three_group_csv):
        proc = run_cli("test", "--input", three_group_csv, "--method", "bartlett")
        doc = json.loads(proc.stdout)
        assert doc["method"] == "bartlett"
        assert doc["df2"] is None
        assert "m_raw" in doc["details"]
        proc = run_cli("test", "--input", three_group_csv, "--method", "box-anderson")
        doc = json.loads(proc.stdout)
        assert doc["method"] == "box-anderson"
        assert doc["details"]["kurtosis"] > 1.0

    def test_center_flag_rejected_for_bartlett(self, three_group_csv):
        proc = run_cli("test", "--input", three_group_csv, "--method", "bartlett", "--center", "mean")
        assert proc.returncode == 2
        assert "--center" in proc.stderr

    def test_hines_hines_correction(self, three_group_csv):
        proc = run_cli("test", "--input", three_group_csv, "--correction", "hines-hines")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["correction"] == "hines-hines"
        assert doc["df2"] == 18.0 - 3.0 - 3.0  # N - k, minus one pseudo-observation per group

    def test_text_format_carries_identical_numbers(self, toy_csv):
        js = json.loads(run_cli("test", "--input", toy_csv, "--center", "mean").stdout)
        text = run_cli("test", "--input", toy_csv, "--center", "mean", "--format", "text").stdout
        lines = dict(
            line.split(": ", 1) for line in text.splitlines() if ": " in line and not line.startswith(" ")
        )
        assert float(lines["statistic"]) == js["statistic"]
        assert float(lines["p_value"]) == js["p_value"]

    def test_json_numbers_round_trip(self, three_group_csv):
        # Serialized values must reconstruct the exact doubles.
        doc = json.loads(run_cli("test", "--input", three_group_csv).stdout)
        again = json.loads(json.dumps(doc))
        assert again == doc


# Odd and even group sizes, so that Hines-Hines both drops and folds.
_ROW_GROUPS = {
    "x": [1.0, 2.0, 4.0, 8.0, 3.0],
    "y": [2.0, 2.5, 7.0, 1.0, 9.0, 4.0],
    "z": [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0],
}
_CORRECT = {"none": lambda dev: dev, "hines-hines": samples.hines_hines_correct, "obrien": samples.obrien_scale}


class TestGroupRows:
    """Each group row holds the library's numbers for the deviations the test analyzed."""

    @pytest.fixture()
    def rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        lines = [f"{label},{v!r}" for label, values in _ROW_GROUPS.items() for v in values]
        path.write_text("group,value\n" + "\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize(
        "argv, center, correction",
        [
            pytest.param(argv, center, correction, id=" ".join(argv))
            for argv, center, correction in [
                *(
                    (["test", "--center", center, "--correction", correction], center, correction)
                    for center in samples.CENTERS
                    for correction in spread.CORRECTIONS
                    if correction != "hines-hines" or center == "median"
                ),
                (["test", "--method", "bfl"], "median", "none"),
                (["test", "--method", "bfl", "--correction", "hines-hines"], "median", "hines-hines"),
                (["test", "--method", "trimmed"], "trimmed", "none"),
                (["test", "--method", "bartlett"], "mean", "none"),
                (["test", "--method", "box-anderson"], "mean", "none"),
                (["trend"], "median", "none"),
                (["trend", "--center", "trimmed"], "trimmed", "none"),
                (["anova", "--method", "welch"], "mean", "none"),
                (["anova"], "mean", "none"),
            ]
        ],
    )
    def test_rows_are_the_library_numbers(self, rows_csv, capsys, argv, center, correction):
        assert cli.main([*argv, "--input", rows_csv]) == 0
        rows = json.loads(capsys.readouterr().out)["groups"]
        sample = samples.GroupedSample(tuple(_ROW_GROUPS.items()))
        dev = samples.deviations(sample, center)
        analyzed = _CORRECT[correction](dev)
        assert rows == [
            {
                "label": label,
                "size": len(values),
                "center": c,
                "deviation_mean": float(np.mean(z)),
                "variance": float(np.var(values, ddof=1)),
            }
            for (label, values), c, z in zip(_ROW_GROUPS.items(), dev.centers, analyzed.values)
        ]


class TestFlagChecks:
    """A bad flag, or a bad pair of flags, is reported before the dataset is read."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["test", "--method", "bfl", "--center", "mean"], "--method bfl fixes the center to median"),
                (["test", "--method", "trimmed", "--center", "median"], "--method trimmed fixes the center to trimmed"),
                (["test", "--method", "bartlett", "--correction", "none"], "--correction does not apply to --method bartlett"),
                (["test", "--center", "trimmed", "--trim-proportion", "0.7"], "trim proportion must lie in [0, 0.5)"),
                (["trend", "--scores", "1,x"], "bad --scores '1,x'"),
                (["trend", "--group-order", " , "], "--group-order lists no labels"),
                (["anova", "--method", "welch", "--prelim-level", "0.2"], "--prelim-level does not apply to --method welch"),
                (["test", "--center", "mean", "--correction", "hines-hines"], "the Hines-Hines correction applies"),
                (["anova", "--prelim-center", "trimmed", "--trim-proportion", "0.7"], "trim proportion must lie in"),
                # A trim proportion where no center is trimmed would be ignored.
                (["test", "--method", "bartlett", "--trim-proportion", "0.1"], "--trim-proportion does not apply"),
                (["test", "--method", "box-anderson", "--trim-proportion", "0.1"], "--trim-proportion does not apply"),
                (["test", "--trim-proportion", "0.1"], "the median center takes no trim proportion"),
                (["test", "--center", "mean", "--trim-proportion", "0.1"], "the mean center takes no trim proportion"),
                (["test", "--method", "bfl", "--trim-proportion", "0.1"], "the median center takes no trim proportion"),
                (["trend", "--center", "median", "--trim-proportion", "0.1"], "the median center takes no trim proportion"),
                (["anova", "--trim-proportion", "0.1"], "the median center takes no trim proportion"),
                (["anova", "--prelim-center", "mean", "--trim-proportion", "0.1"], "the mean center takes no trim proportion"),
                (["anova", "--method", "welch", "--trim-proportion", "0.1"], "--trim-proportion does not apply"),
                (["anova", "--method", "classic", "--trim-proportion", "0.1"], "--trim-proportion does not apply"),
            ]
        ],
    )
    def test_reported_before_the_file_is_read(self, tmp_path, capsys, argv, message):
        assert cli.main([*argv, "--input", str(tmp_path / "missing.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["test", "--method", "trimmed"], "trim_proportion"),
            (["test", "--center", "trimmed"], "trim_proportion"),
            (["trend", "--center", "trimmed"], "trim_proportion"),
            (["anova", "--prelim-center", "trimmed"], "preliminary"),
        ],
    )
    def test_a_trimmed_center_takes_the_proportion(self, three_group_csv, capsys, argv, field):
        assert cli.main([*argv, "--trim-proportion", "0.1", "--input", three_group_csv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc[field]["trim_proportion"] if field == "preliminary" else doc[field]) == 0.1


class TestInputErrors:
    def test_missing_file(self, tmp_path):
        proc = run_cli("test", "--input", str(tmp_path / "nope.csv"))
        assert proc.returncode == 2
        assert "nope.csv" in proc.stderr

    def test_missing_value_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,weight\na,1\nb,2\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2
        assert "value" in proc.stderr

    def test_unparseable_value_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,value\na,1\na,oops\nb,2\nb,3\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2
        assert ":3:" in proc.stderr and "oops" in proc.stderr

    def test_diagnostics_cite_the_physical_line_past_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("group,value\na,1\n\n\nb,oops\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2
        assert f"{path}:5: bad value 'oops'" in proc.stderr

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row(self, tmp_path, raw):
        path = tmp_path / "bad.csv"
        path.write_text(f"group,value\na,1\na,2\nb,3\nb,{raw}\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2
        assert f"{path}:5: non-finite value {raw!r}" in proc.stderr

    def test_undecodable_file_is_an_input_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"group,value\na,1\n\xe9,2\nb,3\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2
        assert "not UTF-8" in proc.stderr and "Traceback" not in proc.stderr

    def test_single_group_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("group,value\na,1\na,2\na,3\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 2

    def test_degenerate_constant_groups_exit_3(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("group,value\na,5\na,5\na,5\nb,7\nb,7\nb,7\n")
        proc = run_cli("test", "--input", str(path))
        assert proc.returncode == 3
        assert "'a'" in proc.stderr and "'b'" in proc.stderr

    def test_unknown_method_is_usage_error(self, toy_csv):
        proc = run_cli("test", "--input", toy_csv, "--method", "fligner")
        assert proc.returncode == 2


class TestTrendCommand:
    def test_default_scores_and_sides(self, three_group_csv):
        proc = run_cli("trend", "--input", three_group_csv)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["method"] == "trend"
        assert doc["scores"] == [1.0, 2.0, 3.0]
        assert doc["side"] == "two-sided"
        assert doc["p_value"] == doc["p_two_sided"]
        assert abs(doc["p_increasing"] + doc["p_decreasing"] - 1.0) <= 1e-12

    def test_explicit_scores_and_side(self, three_group_csv):
        proc = run_cli("trend", "--input", three_group_csv, "--scores", "1,2,4", "--side", "increasing")
        doc = json.loads(proc.stdout)
        assert doc["scores"] == [1.0, 2.0, 4.0]
        assert doc["p_value"] == doc["p_increasing"]

    def test_group_order_reverses_slope(self, three_group_csv):
        fwd = json.loads(run_cli("trend", "--input", three_group_csv).stdout)
        rev = json.loads(
            run_cli("trend", "--input", three_group_csv, "--group-order", "high,mid,low").stdout
        )
        assert rev["beta_hat"] == pytest.approx(-fwd["beta_hat"], rel=1e-12)

    def test_score_length_mismatch(self, three_group_csv):
        proc = run_cli("trend", "--input", three_group_csv, "--scores", "1,2")
        assert proc.returncode == 2

    def test_scores_close_together_give_the_z_of_scores_1_apart(self, toy_csv):
        close = run_cli("trend", "--input", toy_csv, "--scores", "1e-170,2e-170")
        assert close.returncode == 0, close.stderr
        doc, base = json.loads(close.stdout), json.loads(run_cli("trend", "--input", toy_csv, "--scores", "1,2").stdout)
        assert doc["z_statistic"] == pytest.approx(base["z_statistic"], rel=1e-14)
        assert doc["beta_hat"] == pytest.approx(base["beta_hat"] * 1e170, rel=1e-14)

    def test_a_slope_too_large_for_a_float_exits_2(self, tmp_path):
        path = tmp_path / "wide-apart.csv"
        path.write_text("group,value\na,1e10\na,2e10\na,3e10\nb,2e10\nb,4e10\nb,6e10\n")
        proc = run_cli("trend", "--input", str(path), "--scores", "0,1e-300")
        assert proc.returncode == 2
        assert proc.stderr == "error: the trend slope overflows a float: the values are too large\n"

    def test_bad_group_order(self, three_group_csv):
        proc = run_cli("trend", "--input", three_group_csv, "--group-order", "a,b,c")
        assert proc.returncode == 2


class TestAnovaCommand:
    def test_classic_oracle(self, toy_csv):
        doc = json.loads(run_cli("anova", "--input", toy_csv, "--method", "classic").stdout)
        assert doc["method"] == "anova"
        assert abs(doc["statistic"] - 2.4) <= 1e-12

    def test_welch_matches_reference_t_test(self, toy_csv):
        doc = json.loads(run_cli("anova", "--input", toy_csv, "--method", "welch").stdout)
        ref = stats.ttest_ind([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], equal_var=False)
        assert doc["p_value"] == pytest.approx(ref.pvalue, rel=1e-10)

    def test_adaptive_reports_both_stages(self, three_group_csv):
        doc = json.loads(run_cli("anova", "--input", three_group_csv).stdout)
        assert doc["method"] == "adaptive"
        assert doc["branch"] in ("classic", "welch")
        assert doc["preliminary"]["method"] == "levene"
        assert doc["preliminary"]["center"] == "median"
        assert doc["final"]["method"] in ("anova", "welch")
        assert doc["statistic"] == doc["final"]["statistic"]
        expected = "welch" if doc["preliminary"]["p_value"] < 0.15 else "classic"
        assert (doc["branch"] == "welch") == (expected == "welch")

    def test_nonstandard_level_warns_in_report(self, three_group_csv):
        doc = json.loads(
            run_cli("anova", "--input", three_group_csv, "--prelim-level", "0.5").stdout
        )
        assert any("0.5" in w for w in doc["warnings"])

    def test_prelim_flags_require_adaptive(self, toy_csv):
        proc = run_cli("anova", "--input", toy_csv, "--method", "classic", "--prelim-level", "0.2")
        assert proc.returncode == 2


class TestSimulateCommand:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "# tiny smoke grid\n"
            "scenario = smoke\n"
            "distribution = normal\n"
            "group_sizes = 6, 6, 6\n"
            "sigma_ratios = 1, 1, 1\n"
            "tests = anova, levene:median\n"
            "replications = 80\n"
        )
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        p1 = run_cli("simulate", "--grid", str(grid), "--seed", "31", "--out", str(out1))
        p2 = run_cli("simulate", "--grid", str(grid), "--seed", "31", "--out", str(out2))
        assert p1.returncode == 0, p1.stderr
        assert p2.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("grid_seed,scenario,distribution,group_sizes")

    def test_ratios_and_shifts_are_written_as_they_read_back(self, tmp_path):
        # format(v, "g") keeps six digits: both files wrote 1:1.23457 and 0:0.123457 before.
        columns = []
        for ratio, shift in (("1.23456789", "0.1234567891"), ("1.23457", "0.123457")):
            grid = tmp_path / f"{ratio}.txt"
            grid.write_text(
                f"scenario = s\ngroup_sizes = 5, 5\nsigma_ratios = 1, {ratio}\nmean_shifts = 0, {shift}\n"
                "tests = anova\nreplications = 4\n"
            )
            out = tmp_path / f"{ratio}.csv"
            assert run_cli("simulate", "--grid", str(grid), "--seed", "1", "--out", str(out)).returncode == 0
            columns.append(out.read_text().splitlines()[1].split(",")[4:6])
        assert columns == [["1:1.23456789", "0:0.1234567891"], ["1:1.23457", "0:0.123457"]]

    def test_worker_count_leaves_output_unchanged(self, tmp_path):
        grid = tmp_path / "grid.txt"
        grid.write_text(
            "scenario = smoke\ngroup_sizes = 5, 5\nsigma_ratios = 1, 2\n"
            "tests = welch\nreplications = 600\n"
        )
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        run_cli("simulate", "--grid", str(grid), "--seed", "5", "--out", str(out1), "--workers", "1")
        run_cli("simulate", "--grid", str(grid), "--seed", "5", "--out", str(out2), "--workers", "2")
        assert out1.read_bytes() == out2.read_bytes()

    def test_builtin_table1_grid(self, tmp_path):
        out = tmp_path / "t1.csv"
        proc = run_cli("simulate", "--grid", "table1", "--seed", "3", "--reps", "4", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 36  # 12 scenarios x 3 tests
        assert "grid seed 3" in proc.stdout

    def test_scenario_file_errors(self, tmp_path):
        out = tmp_path / "x.csv"
        bad = tmp_path / "bad.txt"
        bad.write_text("scenario = s\ngroup_sizes = 5, 5\nsigma_ratios = 1\ntests = anova\n")
        proc = run_cli("simulate", "--grid", str(bad), "--seed", "1", "--out", str(out))
        assert proc.returncode == 2
        assert "sigma" in proc.stderr
        bad.write_text("group_sizes = 5, 5\n")
        proc = run_cli("simulate", "--grid", str(bad), "--seed", "1", "--out", str(out))
        assert proc.returncode == 2
        bad.write_text("scenario = s\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = anova\nbogus = 1\n")
        proc = run_cli("simulate", "--grid", str(bad), "--seed", "1", "--out", str(out))
        assert proc.returncode == 2
        assert "bogus" in proc.stderr

    def test_a_scenario_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        grid = tmp_path / "g.txt"
        grid.write_bytes(b"scenario = a\xe9\ngroup_sizes = 5,5\nsigma_ratios = 1,1\ntests = levene\nreplications = 20\n")
        assert cli.main(["simulate", "--grid", str(grid), "--seed", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: scenario file {str(grid)!r} is not UTF-8 text (invalid continuation byte)\n")

    def test_a_preliminary_level_warning_is_one_line_on_stderr(self, tmp_path, capsys):
        grid = tmp_path / "g.txt"
        block = "group_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = adaptive:median:0.5\nreplications = 20\n"
        grid.write_text(f"scenario = a\n{block}\nscenario = b\n{block}")
        assert cli.main(["simulate", "--grid", str(grid), "--seed", "1", "--out", str(tmp_path / "o.csv")]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("wrote 2 cells (2 scenarios) to ")
        assert err == (
            "warning: preliminary level 0.5 is outside [0.15, 0.25], the range with empirical support for the adaptive procedure\n"
        )

    def test_missing_grid_file(self, tmp_path):
        proc = run_cli("simulate", "--grid", str(tmp_path / "none.txt"), "--seed", "1",
                       "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2

    def test_unwritable_output(self, tmp_path):
        grid = tmp_path / "g.txt"
        grid.write_text("scenario = s\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = anova\nreplications = 4\n")
        proc = run_cli("simulate", "--grid", str(grid), "--seed", "1",
                       "--out", str(tmp_path / "no" / "dir" / "o.csv"))
        assert proc.returncode == 2

    def test_all_degenerate_cell_reads_nan(self, tmp_path):
        # Median deviations in groups of two are tied pairs: every replicate is 0/0.
        grid = tmp_path / "g.txt"
        grid.write_text("scenario = s\ngroup_sizes = 2, 2\nsigma_ratios = 1, 1\ntests = levene, anova\nreplications = 6\n")
        out = tmp_path / "o.csv"
        proc = run_cli("simulate", "--grid", str(grid), "--seed", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = {row.split(",")[9]: row.split(",")[10:] for row in out.read_text().splitlines()[1:]}
        assert rows["levene:median:none"] == ["nan", "nan", "6"]
        assert rows["anova"][2] == "0" and rows["anova"][0] != "nan"

    def test_auto_seed_is_recorded(self, tmp_path):
        grid = tmp_path / "g.txt"
        grid.write_text("scenario = s\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = anova\nreplications = 4\n")
        out = tmp_path / "o.csv"
        proc = run_cli("simulate", "--grid", str(grid), "--out", str(out))
        assert proc.returncode == 0
        recorded = out.read_text().splitlines()[1].split(",")[0]
        assert int(recorded) >= 0
        assert str(recorded) in proc.stdout

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_an_out_that_cannot_be_opened_exits_2_before_the_grid_runs(self, where, tmp_path, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("the grid ran")

        monkeypatch.setattr(cli, "run_grid", never)
        out = str(tmp_path / "none" / "o.csv") if where == "missing-directory" else str(tmp_path)
        assert cli.main(["simulate", "--grid", "table1", "--reps", "2000", "--seed", "1", "--out", out]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith(f"error: cannot write report {out!r}: [Errno ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    def test_an_out_on_a_full_device_exits_2_with_one_line(self, capsys):
        assert cli.main(["simulate", "--grid", "table1", "--reps", "4", "--seed", "1", "--out", "/dev/full"]) == 2
        assert capsys.readouterr() == ("", "error: cannot write report '/dev/full': [Errno 28] No space left on device\n")

    def test_an_existing_out_keeps_its_bytes_until_the_run_succeeds(self, tmp_path, monkeypatch, capsys):
        argv = ["simulate", "--grid", "table1", "--reps", "4", "--seed", "1"]
        assert cli.main([*argv, "--out", str(tmp_path / "fresh.csv")]) == 0
        out = tmp_path / "o.csv"
        earlier = b"an earlier report, longer than this one\n" * 100
        out.write_bytes(earlier)

        def failing(scenario, start, stop):
            raise ValidationError(f"scenario {scenario.name!r} fails")

        with monkeypatch.context() as mp:
            mp.setattr(sim, "_run_span", failing)
            assert cli.main([*argv, "--out", str(out)]) == 2
        assert out.read_bytes() == earlier
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (tmp_path / "fresh.csv").read_bytes()  # in place of the earlier bytes, not after them

    @pytest.mark.parametrize("source", ["--reps", "scenario file"])
    def test_a_replication_count_past_2_53_exits_2(self, source, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "run_grid", lambda scenarios, workers: ran.append(scenarios) or sim.SimulationReport((), 0.0))
        grid = tmp_path / "g.txt"

        def simulate(reps):
            if source == "--reps":
                argv = ["--grid", "table1", "--reps", str(reps)]
            else:
                grid.write_text(f"scenario = s1\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = anova\nreplications = {reps}\n")
                argv = ["--grid", str(grid)]
            return cli.main(["simulate", *argv, "--seed", "1", "--out", str(tmp_path / "o.csv")])

        assert simulate(2**53) == 0
        assert {scenario.replications for scenario in ran.pop()} == {2**53}
        capsys.readouterr()
        assert simulate(2**53 + 1) == 2 and not ran
        where = "scenario 'table1-n10-10-10-s1-1-1'" if source == "--reps" else f"{grid}: scenario 's1'"
        assert capsys.readouterr().err == f"error: {where} replications must be at most 2**53, got 9007199254740993\n"


class TestSimulateFaults:
    """A scenario's bad draws are tallied; its configuration errors name it."""

    def test_non_finite_draws_are_degenerate_replicates(self, tmp_path):
        # At df 0.02 the chi-squared draw behind a t variate can underflow to 0.
        grid = tmp_path / "g.txt"
        grid.write_text(
            "scenario = heavy\ndistribution = student-t:0.02\ngroup_sizes = 5, 5, 5\n"
            "sigma_ratios = 1, 1, 1\ntests = levene, anova, bartlett, trend\nreplications = 200\n"
        )
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            proc = run_cli("simulate", "--grid", str(grid), "--seed", "1", "--workers", workers, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].decode().splitlines()[1:]
        assert len(rows) == 4 and all(int(row.split(",")[-1]) > 0 for row in rows)

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_only_non_finite_draws_are_degenerate_replicates(self, tmp_path, seed):
        # At df 0.02 a t draw can be finite yet beyond 1e154, where its square
        # would overflow: such a replicate is scored, not tallied as an error.
        grid = tmp_path / "g.txt"
        grid.write_text(
            "scenario = heavy\ndistribution = student-t:0.02\ngroup_sizes = 5, 5, 5\n"
            "sigma_ratios = 1, 1, 1\ntests = levene, anova, bartlett, trend\nreplications = 200\n"
        )
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            proc = run_cli("simulate", "--grid", str(grid), "--seed", seed, "--workers", workers, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        rows = outs[0].decode().splitlines()[1:]
        assert len(rows) == 4 and all(int(row.split(",")[-1]) > 0 for row in rows)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (
                "group_sizes = 2, 3\nsigma_ratios = 1, 1\ntests = levene:median:hines-hines\n",
                "test 'levene:median:hines-hines': group 'g1' has size 2; this test needs at least 3",
            ),
        ],
        ids=["group-too-small"],
    )
    def test_errors_name_the_scenario_and_the_test(self, tmp_path, bad, message):
        grid = tmp_path / "g.txt"
        fine = "group_sizes = 5, 5\nsigma_ratios = 1, 1\ntests = anova\n"
        grid.write_text(f"scenario = fine\n{fine}replications = 20\n\nscenario = bad\n{bad}replications = 20\n")
        proc = run_cli("simulate", "--grid", str(grid), "--seed", "1", "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert proc.stderr == f"error: scenario 'bad': {message}\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("replications = abc", "scenario 's1': replications: invalid literal for int() with base 10: 'abc'"),
            ("master_seed = 1.5", "scenario 's1': master_seed: invalid literal for int() with base 10: '1.5'"),
            ("nominal_level = x", "scenario 's1': nominal_level: could not convert string to float: 'x'"),
            ("master_seed = -1", "scenario 's1' master seed must be an integer in [0, 2**64), got -1"),
            ("replications = 0", "scenario 's1' replications must be a positive integer, got 0"),
            ("mean_shifts = 0", "scenario 's1' has 1 mean shifts for 2 groups"),
            ("distribution = normal", "scenario 's1': missing key 'tests'"),
        ],
        ids=["bad-replications", "bad-master-seed", "bad-level", "negative-seed", "zero-replications", "short-list", "missing-key"],
    )
    def test_scenario_file_errors_name_the_scenario_once_and_the_key(self, tmp_path, capsys, line, message):
        grid = tmp_path / "g.txt"
        tests = "" if line.startswith("distribution") else "tests = anova\n"
        grid.write_text(f"scenario = s1\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1\n{tests}{line}\n")
        assert cli.main(["simulate", "--grid", str(grid), "--seed", "1", "--out", str(tmp_path / "o.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {grid}: {message}\n")

    def test_values_whose_squares_overflow_are_scored(self, tmp_path):
        grid = tmp_path / "g.txt"
        grid.write_text("scenario = huge\ngroup_sizes = 5, 5\nsigma_ratios = 1, 1e200\ntests = anova\nreplications = 20\n")
        proc = run_cli("simulate", "--grid", str(grid), "--seed", "1", "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 0, proc.stderr
        row = (tmp_path / "o.csv").read_text().splitlines()[1].split(",")
        assert row[9] == "anova" and row[10] != "nan" and row[12] == "0"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_a_chunk_too_large_to_shape_names_the_scenario(self, tmp_path, workers):
        # numpy refuses a block 10^20 values wide before it allocates anything.
        grid = tmp_path / "g.txt"
        grid.write_text(
            "scenario = huge\ngroup_sizes = 100000000000000000000, 5\nsigma_ratios = 1, 1\n"
            "tests = anova\nreplications = 1024\n"
        )
        proc = run_cli("simulate", "--grid", str(grid), "--seed", "1", "--workers", workers, "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: scenario 'huge': cannot allocate a chunk of 512 replicates of 100000000000000000005 values: "
            "Maximum allowed dimension exceeded\n"
        )


class TestExitContract:
    @pytest.mark.parametrize("command", ["test", "simulate"])
    def test_tail_that_does_not_converge_exits_3(self, command, toy_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(numerics, "_MAX_ITER", 0)
        if command == "test":
            argv = ["test", "--input", toy_csv]
        else:
            argv = ["simulate", "--grid", "table1", "--seed", "1", "--reps", "4", "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command",
        [["test"], ["test", "--method", "box-anderson"], ["trend"], ["anova"], ["anova", "--method", "welch"]],
    )
    def test_values_too_large_to_square_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        rows = [f"{label},{v}e200" for label, values in (("a", "1234"), ("b", "2468")) for v in values]
        path.write_text("group,value\n" + "\n".join(rows) + "\n")
        assert cli.main([*command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too large" in err

    @pytest.mark.parametrize("command", ["test", "simulate"])
    @pytest.mark.parametrize("detail", ["", "Unable to allocate 8.00 GiB for an array"])
    def test_running_out_of_memory_exits_2(self, command, detail, toy_csv, tmp_path, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError(detail)

        monkeypatch.setattr(cli, "_read_dataset", exhausted)
        monkeypatch.setattr(cli, "run_grid", exhausted)
        if command == "test":
            argv = ["test", "--input", toy_csv]
        else:
            argv = ["simulate", "--grid", "table1", "--seed", "1", "--reps", "4", "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: out of memory" + (f": {detail}" if detail else "") + "\n"

    def test_a_report_variance_that_overflows_exits_2_as_too_large(self, tmp_path, capsys):
        # The mean center's sum overflows at the values' own scale; the variance overflows at any.
        path = tmp_path / "near-max.csv"
        path.write_text("group,value\na,1.7e308\na,1.7e308\na,1\nb,1\nb,2\nb,4\n")
        assert cli.main(["test", "--center", "mean", "--input", str(path)]) == 2
        assert capsys.readouterr().err == "error: the variance of group 'a' overflows a float: the values are too large\n"


    @staticmethod
    def _many_groups(path, values):
        """A dataset of 20,000 groups, g0 to g19999, each holding ``values(i)``."""
        path.write_text("group,value\n" + "".join(f"g{i},{v}\n" for i in range(20_000) for v in values(i)))
        return str(path)

    def test_a_report_into_a_closed_pipe_exits_2_with_one_line(self, tmp_path):
        # As `vartests test ... | head -c 20`: the report is megabytes, the pipe takes 64 KiB.
        path = self._many_groups(tmp_path / "wide.csv", lambda i: (1, 2, 4))
        proc = subprocess.Popen([*CLI, "test", "--input", path], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 2
        assert err == "error: cannot write the report: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("what", ["report", "summary"])
    def test_stdout_on_a_full_device_exits_2_with_one_line(self, toy_csv, tmp_path, what):
        if what == "report":
            argv = ["test", "--input", toy_csv]
        else:
            argv = ["simulate", "--grid", "table1", "--seed", "1", "--reps", "4", "--out", str(tmp_path / "o.csv")]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*CLI, *argv], stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 2
        assert proc.stderr == f"error: cannot write the {what}: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("case, code", [("missing-input", 2), ("constant-groups", 3), ("stdout-too", 2)])
    def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(self, case, code, toy_csv, tmp_path, monkeypatch):
        flat = tmp_path / "flat.csv"
        flat.write_text("group,value\na,1\na,1\nb,2\nb,2\n")
        path = {"missing-input": str(tmp_path / "missing.csv"), "constant-groups": str(flat), "stdout-too": toy_csv}[case]
        names = ("stderr", "stdout") if case == "stdout-too" else ("stderr",)
        with contextlib.ExitStack() as stack:
            scratch = {name: stack.enter_context(open(tmp_path / name, "w")) for name in names}
            for name, file in scratch.items():
                monkeypatch.setattr(sys, name, _FullStream(file.fileno()))
            assert cli.main(["test", "--input", path]) == code
            for file in scratch.values():  # so that what is still buffered goes nowhere at exit
                assert os.path.samestat(os.fstat(file.fileno()), os.stat(os.devnull))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("stdout", ["open", "full"])
    def test_stderr_on_a_full_device_keeps_exit_2(self, toy_csv, tmp_path, stdout):
        path = toy_csv if stdout == "full" else str(tmp_path / "missing.csv")
        with open("/dev/full", "w") as full:
            proc = subprocess.run([*CLI, "test", "--input", path], stdout=full if stdout == "full" else subprocess.DEVNULL, stderr=full)
        assert proc.returncode == 2

    def test_a_degenerate_message_names_five_groups_and_the_count(self, tmp_path):
        path = self._many_groups(tmp_path / "flat.csv", lambda i: (i, i))
        proc = run_cli("test", "--center", "mean", "--input", path)
        assert proc.returncode == 3
        groups = "'g0', 'g1', 'g2', 'g3', 'g4', ... (20000 in all)"
        assert proc.stderr == f"error: degenerate data: no within-group spread in any group (groups {groups}): the F statistic is 0/0\n"
        assert len(proc.stderr) < 200


def test_importing_the_cli_starts_no_process_machinery():
    code = "import sys, vartests.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    assert subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout == "[]\n"


@pytest.mark.parametrize("work", ["simulate", "split-read"])
def test_forked_workers_load_no_pool_module(tmp_path, work):
    # Workers are forked directly: neither multiprocessing nor concurrent.futures is imported.
    grid = tmp_path / "grid.txt"
    grid.write_text("scenario = two-chunks\ndistribution = normal\ngroup_sizes = 5, 5\nsigma_ratios = 1, 2\n"
                    "tests = anova\nreplications = 1024\n")
    data = tmp_path / "plain.csv"
    data.write_text("group,value\n" + "".join(f"g{i % 3},{i * 0.5}\n" for i in range(300)))
    run = {
        "simulate": f"cli.main(['simulate', '--grid', {str(grid)!r}, '--seed', '1', '--workers', '2', "
                    f"'--out', {str(tmp_path / 'out.csv')!r}])",
        "split-read": f"cli._read_dataset({str(data)!r})",
    }[work]
    code = (
        "import sys; from vartests import cli, sim; "
        "cli._usable_cpus = sim._usable_cpus = lambda: 2; cli._MIN_PART_BYTES = 1; "
        f"{run}; "
        "print('forked' if 'vartests._parts' in sys.modules else 'in-process', "
        "sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stderr == "forked []\n"


class TestOptionRegistry:
    """Each option name is defined once, by the module that owns it."""

    def test_parser_choices_are_the_registry_tables(self):
        parser = cli._build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        choices = {
            (name, action.dest): action.choices
            for name, sub in commands.items()
            for action in sub._actions
            if action.dest in ("center", "correction", "side", "prelim_center")
        }
        expected = {
            ("test", "center"): samples.CENTERS,
            ("test", "correction"): spread.CORRECTIONS,
            ("trend", "center"): samples.CENTERS,
            ("trend", "side"): trend.SIDES,
            ("anova", "prelim_center"): samples.CENTERS,
        }
        assert choices.keys() == expected.keys()
        assert all(choices[key] is table for key, table in expected.items())

    def test_test_labels_accept_exactly_the_registry_names(self):
        candidates = {*samples.CENTERS, *spread.CORRECTIONS, *trend.SIDES, "mode", "winsor", "upward"}

        def accepted(template):
            names = set()
            for name in candidates:
                try:
                    compile_test_label(template.format(name))
                except ValidationError:
                    continue
                names.add(name)
            return names

        assert accepted("levene:{}") == set(samples.CENTERS)
        assert accepted("trend:{}") == set(samples.CENTERS)
        assert accepted("adaptive:{}") == set(samples.CENTERS)
        assert accepted("levene:median:{}") == set(spread.CORRECTIONS)
        assert accepted("trend:median:{}") == set(trend.SIDES)


# ---------------------------------------------------------------------------
# one test label from the flags to the simulator


def _flags(label):
    """A ``test``, ``trend`` or ``anova`` command line whose flags spell ``label``."""
    name, *options = label.split(":")
    plain = {"anova": "anova --method classic", "welch": "anova --method welch"}
    if not options:
        return plain.get(name, f"test --method {name}").split()
    command, center_flag, option_flag = {
        "levene": ("test", "--center", "--correction"),
        "trend": ("trend", "--center", "--side"),
        "adaptive": ("anova", "--prelim-center", "--prelim-level"),
    }[name]
    center, _, proportion = options[0].partition("=")
    return [command, center_flag, center, *(["--trim-proportion", proportion] if proportion else []), option_flag, options[1]]


_LABEL_GROUPS = ([1.5, 2.25, 4.0, 8.5, 3.0], [2.0, 2.5, 7.25, 1.0, 9.0, 4.5], [3.0, 1.0, 4.75, 1.5, 5.0, 9.5, 2.0])


def _groups_csv(path, groups):
    path.write_text("group,value\n" + "".join(f"g{i + 1},{v!r}\n" for i, g in enumerate(groups) for v in g))
    return str(path)


def _chunk_outcome(label, groups):
    """The chunk runner's (p-value, degenerate) on a one-row chunk of ``groups``."""
    with np.errstate(all="ignore"):  # as in the simulator
        chunk = sim._Chunk([np.array([g], dtype=float) for g in groups])
        p_values, bad = sim._outcomes(chunk, *sim._compile(label).runner(chunk))
    return p_values[0], bool(bad[0])


@pytest.mark.parametrize("label", LABELS)
def test_the_flags_spell_each_label_and_report_the_chunk_runner_s_p_value(tmp_path, capsys, label):
    argv = _flags(label)
    assert cli.main([*argv, "--input", _groups_csv(tmp_path / "data.csv", _LABEL_GROUPS)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert next(iter(doc)) == "test" and doc["test"] == label
    p_value, degenerate = _chunk_outcome(label, _LABEL_GROUPS)
    assert not degenerate and doc["p_value"] == p_value  # bit for bit
    flat = [[2.0] * len(g) for g in _LABEL_GROUPS]
    assert cli.main([*argv, "--input", _groups_csv(tmp_path / "flat.csv", flat)]) == 3
    assert capsys.readouterr().err.startswith("error: degenerate data: ")
    assert _chunk_outcome(label, flat)[1]


def test_simulate_takes_every_label_a_report_names(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text(f"scenario = every-label\ngroup_sizes = 5, 6, 7\nsigma_ratios = 1, 2, 3\ntests = {', '.join(LABELS)}\n")
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--grid", str(grid), "--reps", "3", "--seed", "1", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        assert [row["test"] for row in csv.DictReader(handle)] == list(LABELS)


def test_a_text_report_names_its_test_first(three_group_csv, capsys):
    argv = ["anova", "--prelim-center", "trimmed", "--trim-proportion", "0.1", "--input", three_group_csv]
    assert cli.main([*argv, "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("test: adaptive:trimmed=0.1:0.15\n")


# ---------------------------------------------------------------------------
# generated datasets and flags, in process

_HUGE = "x" * 200_000  # past the csv module's field limit
_HEADERS = ("group,value",) * 6 + (
    "\ufeffgroup,value", "value,group", "group,value,note", "group,value,value", '"group","value"', "group,weight", "",
    f"group,value,{_HUGE}",
)
_LABEL_CELLS = ("a", "b", "c", " a ", '"a"', '"b,x"', '"a\nb"', "a\x00", "é")
_VALUE_CELLS = ("1", "-3", '"4"', "1_000", " 7 ", "-1e-200")
_BAD_CELLS = ("", "nan", "-inf", "oops", _HUGE)
# Values for the float flags, in range or not.
_FLOATS = ("0.1", "0.15", "0.2", "0.25", "0", "0.5", "-0.1", "nan", "1e-300")
_LISTS = {"scores": ("1,2", "1,2,3", "3,1,2", "1,x"), "group_order": ("a,b", "b,a", "a,b,c", " , ")}


@st.composite
def _dataset_bytes(draw):
    """A dataset of 2-4 groups of 3-6 values, as bytes, which may be spoilt in one place."""
    labels = draw(st.lists(st.sampled_from(_LABEL_CELLS), min_size=2, max_size=4, unique=True))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1.0, 1e-200, 1e-200, 1e200]))  # a variance past 1e308 exits 2
    values = st.floats(-1e6, 1e6).map(lambda x: repr(x * scale)) | st.sampled_from(_VALUE_CELLS)
    rows = draw(st.permutations([f"{label},{draw(values)}" for label in labels for _ in range(draw(st.integers(3, 6)))]))
    if draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, len(rows) - 1))] = ",".join(draw(st.lists(st.sampled_from(_BAD_CELLS), min_size=1, max_size=3)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join([draw(st.sampled_from(_HEADERS)), *rows]) + draw(st.sampled_from(["", newline]))).encode()
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff\xfe", b"\x00", b'"', b"\r"])) + data[at:]
    return data


@st.composite
def _command_line(draw):
    """A dataset command with some of its flags, each drawn from the choices its parser takes from the registry."""
    commands = next(a for a in cli._build_parser()._actions if a.dest == "command").choices
    command = draw(st.sampled_from(["test", "trend", "anova"]))
    argv = [command]
    for action in commands[command]._actions:
        if not action.option_strings or action.dest in ("help", "input") or draw(st.integers(0, 3)):
            continue
        choices = action.choices or _LISTS.get(action.dest) or _FLOATS
        argv += [action.option_strings[0], draw(st.sampled_from(list(choices)))]
    return argv


@settings(max_examples=300, deadline=None)
@given(data=_dataset_bytes(), argv=_command_line())
@example(data=f"group,value,{_HUGE}\na,1,2\nb,3,4\n".encode(), argv=["anova"])
def test_generated_inputs_exit_0_2_or_3_with_one_error_line(data, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--input", path])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        text = out.getvalue()
        label = json.loads(text)["test"] if text.startswith("{") else text.splitlines()[0].removeprefix("test: ")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PreliminaryLevelWarning)  # the report holds it already
            assert compile_test_label(label) == label


# ---------------------------------------------------------------------------
# generated scenario files, in process

_JUNK = ("0", "-1", "nan", "inf", "1e-300", "1e308", "word", "")
# Each key's good values, then values that may be refused.  Every count here is small: a run
# of at most 5 groups of 8 values and 64 replicates is quick, and --workers 1 forks nothing.
_SCENARIO_VALUES = {
    "distribution": (
        ("normal", "exponential", "student-t", "student-t:3", "chi-squared:3", "student-t:1e-300"),
        ("chi-squared:nan", "normal:3", "cauchy", "student-t:x", *_JUNK),
    ),
    "group_sizes": (("2", "3", "5", "8"), _JUNK),
    "sigma_ratios": (("1", "2", "0.5", "1e-300", "1e300"), _JUNK),
    "mean_shifts": (("0", "1", "-2.5", "1e308"), _JUNK),
    "tests": (
        (*LABELS, "levene:trimmed=0.3", "trend:trimmed=-0.0:decreasing", "adaptive:trimmed=5e-324:0.2",
         "adaptive:median:-0.0", "adaptive:median:0.0", "adaptive:mean:0.5"),
        ("levene:median=0.1", "levene:trimmed=0.5", "levene:mean:hines-hines", "trend:median:sideways", "tukey", *_JUNK),
    ),
    "nominal_level": (("0.05", "0.1", "0.5"), _JUNK),
    "replications": (("1", "2", "16", "64"), _JUNK),
    "master_seed": (("0", "7", "18446744073709551615"), ("18446744073709551616", *_JUNK)),
}
_PER_GROUP_KEYS = {"group_sizes", "sigma_ratios", "mean_shifts"}
_FAULTS = (None, None, None, "name", "opening", "groups", "length", "missing", "twice", "value", "stray", "byte")


@st.composite
def _scenario_file(draw):
    """A scenario file of 1-3 blocks with comments and blank lines, as bytes, with at most one fault."""
    fault = draw(st.sampled_from(_FAULTS))
    blocks = []
    for index in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, 5))
        lengths = {"group_sizes": k, "sigma_ratios": k, "mean_shifts": k, "tests": draw(st.integers(1, 4))}
        block = [["scenario", f"s{index}"]]
        for key, (good, _) in _SCENARIO_VALUES.items():
            if key in ("group_sizes", "sigma_ratios", "tests") or draw(st.booleans()):
                size = lengths.get(key, 1)  # tests are distinct as written, though two may spell one test
                block.append([key, *draw(st.lists(st.sampled_from(good), min_size=size, max_size=size, unique=key == "tests"))])
        blocks.append(block)
    block = draw(st.sampled_from(blocks))
    line = draw(st.sampled_from(block[1:]))
    if fault == "name":
        block[0][1] = draw(st.sampled_from(["s0", "a b", "#1", "x=y"]))  # s0 may be another block's name
    elif fault == "opening":
        del blocks[0][0]
    elif fault == "groups":
        block[1:] = [entry[:2] if entry[0] in _PER_GROUP_KEYS else entry for entry in block[1:]]
    elif fault == "length":
        line[1:] = line[1:] + line[1:2] if draw(st.booleans()) else line[1:-1]
    elif fault == "missing":
        block.remove(line)
    elif fault == "twice":
        block.insert(draw(st.integers(1, len(block))), line)
    elif fault == "value":
        line[draw(st.integers(1, len(line) - 1))] = draw(st.sampled_from(_SCENARIO_VALUES[line[0]][1]))
    lines = [f"{key} = {', '.join(values)}" for key, *values in (entry for block in blocks for entry in block)]
    strays = ["", "# a comment", "   ", "# = 5"] + (["no equals sign", "tests =", "= 5", "bogus = 1"] if fault == "stray" else [])
    for _ in range(draw(st.integers(0, 2)) + (fault == "stray")):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(strays)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    data = (newline.join(lines) + newline).encode()
    if fault == "byte":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x00", b"\xe9", b"=", b","])) + data[at:]
    return data


@settings(max_examples=200, deadline=None)
@given(data=_scenario_file())
@example(data=b"scenario = a\xe9\ngroup_sizes = 5,5\nsigma_ratios = 1,1\ntests = levene\nreplications = 20\n")
@example(data=b"scenario = a\ngroup_sizes = 5,5\nsigma_ratios = 1,1\ntests = adaptive:median:0.0, adaptive:median:-0.0\n")
def test_generated_scenario_files_exit_0_2_or_3_with_one_error_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "grid.txt"), os.path.join(tmp, "out.csv")
        with open(path, "wb") as handle:
            handle.write(data)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["simulate", "--grid", path, "--reps", "16", "--seed", "1", "--workers", "1", "--out", out])
        err = stderr.getvalue().splitlines()
        assert code in (0, 2, 3), stderr.getvalue()
        assert all(line.startswith("warning: ") for line in err if not line.startswith("error: ")), err
        if code:
            assert [line for line in err if line.startswith("error: ")] == err[-1:], err
            return
        assert not [line for line in err if line.startswith("error: ")], err
        with open(out, newline="") as handle:
            tests = [row["test"] for row in csv.DictReader(handle)]
    assert tests
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PreliminaryLevelWarning)  # printed as a warning line already
        assert [compile_test_label(label) for label in tests] == tests
