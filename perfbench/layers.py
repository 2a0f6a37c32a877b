"""The traced run: per-layer metrics from spans the benchmark records itself.

The benchmark calls the public functions of ``numerics``, ``samples``,
``spread``, ``means``, ``trend``, ``sim`` and ``cli`` in-process on the same
generated inputs as the untraced workloads, and records a span (name,
parent, start, end) around each call.  Spans stay in memory and are written
once, at the end, to ``.perfbench_work/trace-spans.csv``.

Every traced run covers every layer, whatever the workload, so the set of
per-layer metrics is the same on each:

* the two simulation grids are run through ``cli.main(["simulate", ...])``
  and then replayed replicate by replicate with ``RngStream``, ``draw``,
  ``GroupedSample`` and the public test functions.  The replayed rejection
  counts must equal those implied by the simulate CSV, which shows that the
  trace measured the same program;
* the two CLI datasets are loaded with ``GroupedSample.from_columns``, each
  command's statistic is timed on the loaded sample, and one command per
  dataset runs through ``cli.main`` with spans around its ingestion,
  statistic and report steps.

A kernel's self time is its inclusive time minus the sibling spans for the
deviations, correction and tail probabilities that the benchmark times on
the same replicate with the same arguments.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import run

CLOCK = time.perf_counter_ns
LARGE_DF_CALLS = 32
IMPORT_SAMPLES = 3


class Tracer:
    """Spans kept in memory as ``(name, parent, start_ns, end_ns)``; the id is the index."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []

    def add(self, name: str, parent: int, start: int, end: int) -> int:
        self.spans.append((name, parent, start, end))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1) -> int:
        return self.add(name, parent, CLOCK(), 0)

    def close(self, span: int) -> int:
        name, parent, start, _ = self.spans[span]
        end = CLOCK()
        self.spans[span] = (name, parent, start, end)
        return end - start

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id,parent,name,start_ns,end_ns\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                handle.write(f"{index},{parent},{name},{start},{end}\n")


def _us(ns_values) -> float:
    return statistics.median(ns_values) / 1000.0 if ns_values else 0.0


def metric_name(label: str) -> str:
    return label.replace(":", ".")


# ---------------------------------------------------------------------------
# simulation replay


class Replay:
    """Replays simulation replicates with spans around every layer call."""

    def __init__(self, vt, tracer: Tracer):
        self.vt = vt
        self.tracer = tracer
        self.draw_ns: dict[str, list[int]] = {"normal": [], "heavy": [], "other": []}
        self.construct_ns: list[int] = []
        self.dev_ns: dict[str, list[int]] = {"mean": [], "median": [], "trimmed": []}
        self.hh_ns: list[int] = []
        self.obrien_ns: list[int] = []
        self.tail_ns: dict[str, list[int]] = {"f_sf": [], "chi_sq_sf": [], "std_normal_sf": []}
        self.kernel_ns: dict[str, list[int]] = {}
        self.self_ns: dict[str, list[int]] = {}
        self.sibling_ns_total = 0

    def _timed(self, name: str, parent: int, fn, *args):
        start = CLOCK()
        value = fn(*args)
        end = CLOCK()
        self.tracer.add(name, parent, start, end)
        return value, end - start

    def _sibling(self, name: str, parent: int, fn, *args):
        value, ns = self._timed(name, parent, fn, *args)
        self.sibling_ns_total += ns
        return value, ns

    def _tail(self, fn_name: str, parent: int, *args) -> int:
        _, ns = self._sibling(f"numerics.{fn_name}", parent, getattr(self.vt, fn_name), *args)
        self.tail_ns[fn_name].append(ns)
        return ns

    def _kernel(self, label: str, sample, parent: int, dev_ns: dict, hh_ns: int, ob_ns: int):
        """Run one test on one replicate; returns its p-value, or None if degenerate."""
        vt = self.vt
        name, *args = label.split(":")
        start = CLOCK()
        try:
            if name == "levene":
                result = vt.levene_test(sample, args[0], args[1])
            elif name == "anova":
                result = vt.anova_f(sample)
            elif name == "welch":
                result = vt.welch_anova(sample)
            elif name == "bartlett":
                result = vt.bartlett_m(sample)
            elif name == "box-anderson":
                result = vt.box_anderson_b3(sample)
            elif name == "trend":
                result = vt.trend_test(sample, None, args[0])
            else:  # adaptive
                config = vt.AdaptiveConfig(preliminary_level=float(args[1]), preliminary_center=args[0])
                result = vt.adaptive_anova(sample, config)
        except vt.DegenerateDataError:
            return None
        end = CLOCK()
        self.tracer.add(f"kernel.{label}", parent, start, end)
        siblings = 0
        if name == "levene":
            siblings += dev_ns[args[0]] + {"hines-hines": hh_ns, "obrien": ob_ns}.get(args[1], 0)
            siblings += self._tail("f_sf", parent, result.statistic, result.df1, result.df2)
            p = result.p_value
        elif name in ("anova", "welch"):
            siblings += self._tail("f_sf", parent, result.statistic, result.df1, result.df2)
            p = result.p_value
        elif name == "bartlett":
            siblings += self._tail("chi_sq_sf", parent, result.statistic, result.df1)
            p = result.p_value
        elif name == "box-anderson":
            siblings += self._tail("chi_sq_sf", parent, result.details["bartlett_statistic"], result.df1)
            siblings += self._tail("chi_sq_sf", parent, result.statistic, result.df1)
            p = result.p_value
        elif name == "trend":
            siblings += dev_ns[args[0]]
            siblings += self._tail("std_normal_sf", parent, result.z_statistic)
            siblings += self._tail("std_normal_sf", parent, -result.z_statistic)
            p = {"increasing": result.p_increasing, "decreasing": result.p_decreasing}.get(args[1], result.p_two_sided)
        else:
            prelim, final = result.preliminary, result.final
            siblings += dev_ns[args[0]]
            siblings += self._tail("f_sf", parent, prelim.statistic, prelim.df1, prelim.df2)
            siblings += self._tail("f_sf", parent, final.statistic, final.df1, final.df2)
            p = final.p_value
        self.kernel_ns.setdefault(label, []).append(end - start)
        self.self_ns.setdefault(label, []).append(end - start - siblings)
        return p

    def scenario(self, scenario) -> tuple[dict[str, int], dict[str, int]]:
        """Replay every replicate; returns rejections and degenerate counts per test."""
        vt = self.vt
        head, _, shape = scenario.distribution.partition(":")
        # Normal draws; gamma-based draws (t and chi-squared); the rest.
        family = {"normal": "normal", "student-t": "heavy", "chi-squared": "heavy"}.get(head, "other")
        spec = vt.DistributionSpec(head, shape=float(shape) if shape else None)
        labels = scenario.tests
        centers = sorted({label.split(":")[1] for label in labels if label.startswith(("levene", "trend", "adaptive"))})
        wants_hh = any(label.endswith(":hines-hines") for label in labels)
        wants_ob = any(label.endswith(":obrien") for label in labels)
        rejections = dict.fromkeys(labels, 0)
        degenerate = dict.fromkeys(labels, 0)
        tracer = self.tracer
        for rep in range(scenario.replications):
            replicate = tracer.open("sim.replicate")
            start = CLOCK()
            rng = vt.RngStream(scenario.master_seed, rep).generator()
            groups = []
            for index, size in enumerate(scenario.group_sizes):
                errors = vt.draw(spec, size, rng)
                groups.append((f"g{index + 1}", scenario.mean_shifts[index] + scenario.sigma_ratios[index] * errors))
            end = CLOCK()
            tracer.add("numerics.draw", replicate, start, end)
            self.draw_ns[family].append(end - start)
            sample, ns = self._timed("samples.GroupedSample", replicate, vt.GroupedSample, tuple(groups))
            self.construct_ns.append(ns)

            # Sibling spans: the deviation steps the kernels below repeat internally.
            dev_ns: dict[str, int] = {}
            devs = {}
            for kind in centers:
                devs[kind], dev_ns[kind] = self._sibling(f"samples.deviations.{kind}", replicate, vt.deviations, sample, kind)
                self.dev_ns[kind].append(dev_ns[kind])
            hh_ns = ob_ns = 0
            if wants_hh:
                try:
                    _, hh_ns = self._sibling("samples.hines_hines_correct", replicate, vt.hines_hines_correct, devs["median"])
                    self.hh_ns.append(hh_ns)
                except vt.DegenerateDataError:
                    pass
            if wants_ob:
                _, ob_ns = self._sibling("samples.obrien_scale", replicate, vt.obrien_scale, devs["median"])
                self.obrien_ns.append(ob_ns)

            for label in labels:
                p = self._kernel(label, sample, replicate, dev_ns, hh_ns, ob_ns)
                if p is None:
                    degenerate[label] += 1
                elif p < scenario.nominal_level:
                    rejections[label] += 1
            tracer.close(replicate)
        return rejections, degenerate


def _csv_counts(path: str) -> dict[tuple[str, str], tuple[int, int]]:
    """(scenario, test) -> (rejections, degenerate) implied by a simulate report."""
    counts = {}
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            errors = int(row["error_count"])
            valid = int(row["replications"]) - errors
            counts[(row["scenario"], row["test"])] = (round(float(row["rejection_rate"]) * valid), errors)
    return counts


# ---------------------------------------------------------------------------
# in-process CLI with spans around its steps


_STATISTICS = ("levene_test", "trend_test", "adaptive_anova", "welch_anova", "anova_f", "bartlett_m", "box_anderson_b3")
_REPORT_STEPS = ("_group_rows", "_analyzed_deviation_means", "_finish")
_STEP_SPANS = {
    "_read_dataset": "cli.read_dataset",
    "run_grid": "sim.run_grid",
    "write_report_csv": "cli.write_report_csv",
    **{name: "cli.statistic" for name in _STATISTICS},
    **{name: "cli.report" for name in _REPORT_STEPS},
}


def traced_main(cli, tracer: Tracer, argv: list[str]) -> tuple[int, int, str]:
    """Run ``cli.main(argv)`` with spans around its steps; returns (exit, span id, stdout)."""
    root = tracer.open("cli.main")
    saved = {}

    def wrap(fn, span_name):
        def wrapper(*args, **kwargs):
            start = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.add(span_name, root, start, CLOCK())

        return wrapper

    for attr, span_name in _STEP_SPANS.items():
        if hasattr(cli, attr):
            saved[attr] = getattr(cli, attr)
            setattr(cli, attr, wrap(saved[attr], span_name))
    missing = sorted(set(_STEP_SPANS) - set(saved))
    if missing:
        print(f"perfbench: cli no longer has {missing}; those spans are not recorded", file=sys.stderr)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, reported like exit 1
        print(f"perfbench: cli.main({argv[0]}) raised {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)
        tracer.close(root)
    return code, root, out.getvalue()


def _children_ns(tracer: Tracer, parent: int, name: str) -> int:
    return sum(end - start for n, p, start, end in tracer.spans if p == parent and n == name)


def _read_columns(path: str) -> tuple[list[str], list[float]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader)
        labels, values = [], []
        for label, value in reader:
            labels.append(label)
            values.append(float(value))
    return labels, values


# ---------------------------------------------------------------------------


class TracedRun:
    """The layer program of one traced run and the metrics it collects."""

    def __init__(self, root: str, work_dir: str, seed: int, reference: dict):
        sys.path.insert(0, os.path.join(root, "src"))
        import vartests
        from vartests import cli

        self.vt, self.cli = vartests, cli
        self.root, self.work_dir, self.reference = root, work_dir, reference
        self.folded = inputs.input_seed(seed)
        self.tracer = Tracer()
        self.metrics: dict[str, tuple[float, str]] = {}
        self.failures: list[str] = []  # operations that did not finish
        self.incorrect: list[str] = []  # outputs that were wrong
        self.attempted = 0
        names = ("spread-grid.txt", "tall.csv", "wide.csv")
        manifest = inputs.make_inputs(work_dir, seed, names)
        self.files = {name: os.path.join(manifest["dir"], name) for name in names}
        self.rows = {name: manifest["files"][name]["rows"] for name in names}
        for name in names:
            if manifest["files"][name]["sha256"] != reference["inputs"][name]:
                self.incorrect.append(f"generated {name} differs from the reference")

    def process_import(self) -> None:
        """process.import_s: interpreter start plus ``import vartests.cli``."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        walls = []
        for _ in range(IMPORT_SAMPLES):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import vartests.cli"], env=env, cwd=self.root, check=True, timeout=60)
            walls.append(time.perf_counter() - start)
        self.metrics["process.import_s"] = (statistics.median(walls), "s")

    def sims(self) -> None:
        """Both grids through ``cli.main(["simulate", ...])``, then replayed."""
        vt, tracer, folded = self.vt, self.tracer, self.folded
        replay = Replay(vt, tracer)
        degenerate_total = mismatches = csv_ns = overhead_ns = 0
        run_grid_ns = {}
        build = tracer.open("sim.grid_build")
        table1 = vt.table1_grid(folded, inputs.TABLE1_REPS)
        # The same scenarios ``simulate`` parses from the generated grid file.
        spread = tuple(
            vt.Scenario(name, dist, sizes, ratios, None, inputs.SPREAD_TESTS, 0.05, inputs.SPREAD_REPS, vt.derive_seed(folded, index))
            for index, (name, dist, sizes, ratios) in enumerate(inputs.SPREAD_SCENARIOS)
        )
        build_ns = tracer.close(build)
        grids = (
            ("sim-table1", "table1", table1, inputs.TABLE1_REPS, (("simulate-table1", 1),)),
            ("sim-spread", self.files["spread-grid.txt"], spread, inputs.SPREAD_REPS,
             (("simulate-spread-w1", 1), ("simulate-spread-w2", 2))),
        )
        for workload, grid, scenarios, reps, runs in grids:
            digests = []
            for op_name, workers in runs:
                self.attempted += 1
                out_csv = os.path.join(self.work_dir, f"trace-{op_name}.csv")
                argv = ["simulate", "--grid", grid, "--seed", str(folded), "--reps", str(reps),
                        "--workers", str(workers), "--out", out_csv]
                code, span, _ = traced_main(self.cli, tracer, argv)
                run_grid_ns[op_name] = _children_ns(tracer, span, "sim.run_grid")
                csv_ns += _children_ns(tracer, span, "cli.write_report_csv")
                digests.append(inputs.sha256_of(out_csv) if code == 0 else None)
                if code != 0:
                    self.failures.append(f"{op_name} exited {code}")
                elif digests[-1] != self.reference[workload][op_name].get("csv_sha256"):
                    self.incorrect.append(f"{op_name} report differs from the reference")
            if len(set(digests)) != 1:
                self.incorrect.append(f"{workload}: reports differ between worker counts")
            if digests[0] is None:
                continue
            counts = _csv_counts(os.path.join(self.work_dir, f"trace-{runs[0][0]}.csv"))
            degenerate_total += sum(errors for _, errors in counts.values())
            replay_start = CLOCK()
            sibling_before = replay.sibling_ns_total
            for scenario in scenarios:
                rejections, degenerate = replay.scenario(scenario)
                for label in scenario.tests:
                    self.attempted += 1
                    implied = counts.get((scenario.name, label))
                    if implied != (rejections[label], degenerate[label]):
                        mismatches += 1
                        self.incorrect.append(
                            f"replay of {scenario.name} {label}: {rejections[label]} rejections, "
                            f"{degenerate[label]} degenerate; CSV implies {implied}"
                        )
            replay_ns = CLOCK() - replay_start - (replay.sibling_ns_total - sibling_before)
            overhead_ns += replay_ns - run_grid_ns[runs[0][0]]

        m = self.metrics
        m["numerics.draw_us.normal"] = (_us(replay.draw_ns["normal"]), "us")
        m["numerics.draw_us.heavy"] = (_us(replay.draw_ns["heavy"]), "us")
        m["numerics.f_sf_us.small_df"] = (_us(replay.tail_ns["f_sf"]), "us")
        m["numerics.chi_sq_sf_us.small_df"] = (_us(replay.tail_ns["chi_sq_sf"]), "us")
        m["numerics.normal_sf_us"] = (_us(replay.tail_ns["std_normal_sf"]), "us")
        m["samples.construct_us"] = (_us(replay.construct_ns), "us")
        for kind in ("mean", "median", "trimmed"):
            m[f"samples.deviations_us.{kind}"] = (_us(replay.dev_ns[kind]), "us")
        m["samples.hines_hines_us"] = (_us(replay.hh_ns), "us")
        m["samples.obrien_us"] = (_us(replay.obrien_ns), "us")
        for label in sorted(set(table1[0].tests) | set(spread[0].tests)):
            m[f"kernel_us.{metric_name(label)}"] = (_us(replay.kernel_ns.get(label, [])), "us")
            m[f"kernel_self_us.{metric_name(label)}"] = (_us(replay.self_ns.get(label, [])), "us")
        m["sim.grid_build_s"] = (build_ns / 1e9, "s")
        w2 = run_grid_ns.get("simulate-spread-w2", 0)
        m["sim.pool_speedup"] = (run_grid_ns.get("simulate-spread-w1", 0) / w2 if w2 else 0.0, "ratio")
        m["sim.degenerate_total"] = (degenerate_total, "count")
        m["cli.write_report_csv_s"] = (csv_ns / 1e9, "s")
        m["trace.overhead_s"] = (overhead_ns / 1e9, "s")
        m["trace.replay_mismatches"] = (mismatches, "count")

    def large_df_tails(self) -> None:
        """Tail calls at cli-wide's degrees of freedom, near their means."""
        k, n = inputs.WIDE_GROUPS, inputs.WIDE_ROWS_PER_GROUP
        rng = np.random.Generator(np.random.PCG64([self.folded, 3]))
        calls = [("f_sf", (float(x), k - 1.0, k * (n - 1.0))) for x in rng.f(k - 1, k * (n - 1), LARGE_DF_CALLS)]
        calls += [("chi_sq_sf", (float(x), k - 1.0)) for x in rng.chisquare(k - 1, LARGE_DF_CALLS)]
        errors = 0
        walls = {"f_sf": [], "chi_sq_sf": []}
        for fn_name, args in calls:
            start = CLOCK()
            try:
                getattr(self.vt, fn_name)(*args)
            except ArithmeticError:
                errors += 1
            end = CLOCK()
            self.tracer.add(f"numerics.{fn_name}.large_df", -1, start, end)
            walls[fn_name].append(end - start)
        self.metrics["numerics.f_sf_us.large_df"] = (_us(walls["f_sf"]), "us")
        self.metrics["numerics.chi_sq_sf_us.large_df"] = (_us(walls["chi_sq_sf"]), "us")
        self.metrics["numerics.tail_errors"] = (errors, "count")

    def cli_datasets(self) -> None:
        """Load each CLI dataset, time each command's statistic, run one command through cli.main."""
        vt = self.vt
        statistic_calls = {
            "tall": (
                ("test-levene-hh", lambda s: vt.levene_test(s, "median", "hines-hines")),
                ("trend-increasing", lambda s: vt.trend_test(s, None, "median")),
                ("anova-adaptive", vt.adaptive_anova),
            ),
            "wide": (
                ("test-levene", lambda s: vt.levene_test(s, "median")),
                ("test-bartlett", vt.bartlett_m),
                ("test-box-anderson", vt.box_anderson_b3),
                ("trend", lambda s: vt.trend_test(s, None, "median")),
                ("anova-welch", vt.welch_anova),
            ),
        }
        # The first command of each workload also runs through cli.main.
        main_commands = {"tall": run.TALL_COMMANDS[0], "wide": run.WIDE_COMMANDS[0]}
        for dataset, workload in (("tall", "cli-tall"), ("wide", "cli-wide")):
            path = self.files[f"{dataset}.csv"]
            labels, values = _read_columns(path)
            start = CLOCK()
            sample = vt.GroupedSample.from_columns(labels, values)
            end = CLOCK()
            self.tracer.add(f"samples.from_columns.{dataset}", -1, start, end)
            self.metrics["samples.from_columns_s" + ("" if dataset == "tall" else ".wide")] = ((end - start) / 1e9, "s")
            del labels, values
            for command, call in statistic_calls[dataset]:
                self.attempted += 1
                start = CLOCK()
                try:
                    call(sample)
                except ArithmeticError as exc:
                    self.failures.append(f"{dataset} {command}: {type(exc).__name__}: {exc}")
                end = CLOCK()
                self.tracer.add(f"kernel.{dataset}.{command}", -1, start, end)
                self.metrics[f"kernel_s.{dataset}.{command}"] = ((end - start) / 1e9, "s")
            del sample

            command, argv = main_commands[dataset]
            self.attempted += 1
            code, span, stdout = traced_main(self.cli, self.tracer, [argv[0], "--input", path, *argv[1:]])
            outcome = run.Outcome(run.Op(command, (), 0, 1), 0.0, 0.0, 0.0, code, 0.0, stdout.encode(), b"")
            run.check_outcome(outcome, self.reference[workload][command])
            if outcome.failed:
                (self.incorrect if outcome.incorrect else self.failures).append(
                    f"cli.main {dataset} {command}: {outcome.reason}"
                )
            _, _, start, end = self.tracer.spans[span]
            statistic_ns = _children_ns(self.tracer, span, "cli.statistic")
            report_ns = _children_ns(self.tracer, span, "cli.report")
            if dataset == "tall":
                ingest_ns = end - start - statistic_ns - report_ns
                self.metrics["cli.ingest_us_per_row"] = (ingest_ns / 1e3 / self.rows["tall.csv"], "us")
            else:
                self.metrics["cli.report_s"] = (report_ns / 1e9, "s")

    def result(self) -> dict:
        self.tracer.write(os.path.join(self.work_dir, "trace-spans.csv"))
        for message in self.failures + self.incorrect:
            print(f"perfbench: {message}", file=sys.stderr)
        detail = {"spans": len(self.tracer.spans), "failures": self.failures, "incorrect": self.incorrect}
        print(json.dumps({"detail": detail}), file=sys.stderr)
        return {
            "correct": not self.incorrect,
            "attempted": self.attempted,
            # A wrong output is a failed operation too.
            "failed": len(self.failures) + len(self.incorrect),
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(self.metrics.items())},
        }


def run_traced(root: str, work_dir: str, seed: int, reference: dict) -> dict:
    traced = TracedRun(root, work_dir, seed, reference)
    traced.process_import()
    traced.sims()
    traced.large_df_tails()
    traced.cli_datasets()
    return traced.result()
