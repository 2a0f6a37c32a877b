#!/usr/bin/env python3
"""Benchmark of the vartests CLI: three workloads, checked outputs, named metrics.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload cli-tall --seed 3 --seconds 25 --trace 0

The program is run from the checkout's ``src`` as ``python3 -m vartests``;
nothing is installed.  The load is a closed loop with one client: each
command starts after the previous one exits.  Every command's output is
checked against ``reference.json``, recorded at the commit that defined the
benchmark.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; per-command detail and
the machine record go to standard error.

``--trace 0`` measures the end-to-end metrics by running the CLI as separate
processes.  ``--trace 1`` runs the layer program of ``layers.py`` in-process
instead and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
WORK_DIR_NAME = ".perfbench_work"

SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0  # every run must end within 180 s
OK_EXIT_CODES = (0, 2, 3)
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Op:
    """One CLI invocation: arguments after ``python3 -m vartests``."""

    name: str
    argv: tuple[str, ...]
    rows: int  # observations the command analyzes
    replicates: int  # datasets the command analyzes (1 for a CLI command)
    out_csv: str | None = None  # simulate's report file


@dataclass(frozen=True)
class Plan:
    ops: tuple[Op, ...]  # one pass of the closed loop
    setup_ops: tuple[Op, ...]  # the same commands on a minimal input
    check_ops: tuple[Op, ...] = ()  # untimed, run once after the loop


def _sim_op(name, grid, seed, reps, workers, out, sizes_per_scenario) -> Op:
    argv = ("simulate", "--grid", grid, "--seed", str(seed), "--reps", str(reps), "--workers", str(workers), "--out", out)
    rows = sum(sum(sizes) for sizes in sizes_per_scenario) * reps
    return Op(name, argv, rows, len(sizes_per_scenario) * reps, out)


def _cli_ops(commands, csv_path: str, rows: int) -> tuple[Op, ...]:
    return tuple(Op(name, (argv[0], "--input", csv_path) + argv[1:], rows, 1) for name, argv in commands)


TALL_COMMANDS = (
    ("test-levene-hh", ("test", "--method", "levene", "--correction", "hines-hines")),
    ("trend-increasing", ("trend", "--side", "increasing")),
    ("anova-adaptive", ("anova", "--method", "adaptive")),
)
WIDE_COMMANDS = (
    ("test-levene", ("test", "--method", "levene")),
    ("test-bartlett", ("test", "--method", "bartlett")),
    ("test-box-anderson", ("test", "--method", "box-anderson")),
    ("trend", ("trend",)),
    ("anova-welch", ("anova", "--method", "welch")),
)
# Whether these two finish depends on the seed: their chi-squared tail at
# df 19999 fails to converge for about half of the inputs (ROADMAP D3), and a
# failing command ends early.  They run once per run, counted like every other
# command, but are not timed, so that the timing does not depend on the seed.
WIDE_UNTIMED = ("test-bartlett", "test-box-anderson")

# workload -> input files it needs
WORKLOAD_INPUTS = {
    "sim-spread": ("spread-grid.txt",),
    "cli-tall": ("tall.csv", "minimal.csv"),
    "cli-wide": ("wide.csv", "minimal.csv"),
}


def make_plan(workload: str, seed: int, files: dict[str, str], out_dir: str) -> Plan:
    """The commands of one workload for one (folded) input seed."""
    grid_seed = inputs.input_seed(seed)
    if workload == "sim-spread":
        grid = files["spread-grid.txt"]
        sizes = tuple(s[2] for s in inputs.SPREAD_SCENARIOS)
        reps = inputs.SPREAD_REPS
        return Plan(
            ops=(_sim_op("simulate-spread-w2", grid, grid_seed, reps, 2, os.path.join(out_dir, "spread-w2.csv"), sizes),),
            setup_ops=(_sim_op("simulate-spread-1rep", grid, grid_seed, 1, 2, os.path.join(out_dir, "spread-1rep.csv"), sizes),),
        )
    minimal = files["minimal.csv"]
    minimal_rows = inputs.MINIMAL_CSV.count("\n") - 1
    if workload == "cli-tall":
        return Plan(
            ops=_cli_ops(TALL_COMMANDS, files["tall.csv"], inputs.TALL_ROWS),
            setup_ops=_cli_ops(TALL_COMMANDS, minimal, minimal_rows),
        )
    if workload == "cli-wide":
        ops = _cli_ops(WIDE_COMMANDS, files["wide.csv"], inputs.WIDE_GROUPS * inputs.WIDE_ROWS_PER_GROUP)
        return Plan(
            ops=tuple(op for op in ops if op.name not in WIDE_UNTIMED),
            setup_ops=_cli_ops(WIDE_COMMANDS, minimal, minimal_rows),
            check_ops=tuple(op for op in ops if op.name in WIDE_UNTIMED),
        )
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one command


@dataclass
class Outcome:
    op: Op
    wall_s: float
    cpu_s: float  # user + system time of the command and the workers it reaped
    steal_s: float  # CPU time the host stole from the whole machine meanwhile
    exit_code: int
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes
    failed: bool = False
    incorrect: bool = False
    reason: str = ""


class Runner:
    """Runs CLI commands of one checkout, one at a time, with a deadline."""

    def __init__(self, root: str, work_dir: str, deadline: float):
        self.root = root
        self.work_dir = work_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, op: Op) -> Outcome:
        out_path = os.path.join(self.work_dir, "stdout.txt")
        err_path = os.path.join(self.work_dir, "stderr.txt")
        argv = [sys.executable, "-m", "vartests", *op.argv]
        limit = self.deadline - time.monotonic()
        if limit <= 0.0:
            raise TimeoutError(f"run budget of {RUN_BUDGET_S:.0f} s used up before {op.name}")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            steal = host_steal_s()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=self.env, cwd=self.root, start_new_session=True
            )
            timer = threading.Timer(limit, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 gives the child's peak RSS, including descendants it reaped.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            steal = host_steal_s() - steal
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as handle:
            stdout = handle.read()
        with open(err_path, "rb") as handle:
            stderr = handle.read()
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(op, wall, cpu, steal, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr)


def host_steal_s() -> float:
    """Seconds the hypervisor has stolen from all CPUs since boot (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------------------
# checking outputs


def summarize_report(doc: dict) -> dict:
    """Flatten a CLI JSON report into the fields the reference compares.

    Per-group rows are reduced to their count and column sums so that a
    20,000-group report needs only a few numbers in the reference.
    """
    flat: dict = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}.{key}" if prefix else key, item)
        elif isinstance(value, bool) or value is None or isinstance(value, str):
            flat[prefix] = value
        elif isinstance(value, (int, float)):
            flat[prefix] = float(value)
        elif prefix == "groups":
            flat["groups.count"] = float(len(value))
            for column in ("size", "center", "deviation_mean", "variance"):
                flat[f"groups.sum_{column}"] = math.fsum(float(row.get(column) or 0.0) for row in value)
        elif isinstance(value, list):
            flat[f"{prefix}.count"] = float(len(value))
            if all(isinstance(item, (int, float)) for item in value):
                flat[f"{prefix}.sum"] = math.fsum(float(item) for item in value)

    walk("", doc)
    return flat


def _p_values(flat: dict) -> list[float]:
    return [
        value
        for key, value in flat.items()
        if isinstance(value, float) and (key.rsplit(".", 1)[-1].startswith("p_"))
    ]


def compare_summary(got: dict, expected: dict) -> str:
    """Empty string when every reference field matches, else the first difference."""
    for key, want in expected.items():
        if key not in got:
            return f"field {key} missing"
        have = got[key]
        if isinstance(want, float) and isinstance(have, float):
            if not math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"{key} = {have!r}, reference {want!r}"
        elif have != want:
            return f"{key} = {have!r}, reference {want!r}"
    return ""


def check_outcome(outcome: Outcome, expected: dict | None) -> Outcome:
    """Mark an outcome failed (and incorrect where a result is wrong).

    ``expected`` is the reference entry for the command, or None where no
    reference exists (the minimal set-up inputs).  A command that crashed
    when the reference was recorded has no reference result, so a later fix
    is checked like a set-up command.
    """
    if expected is not None and expected.get("exit") not in OK_EXIT_CODES:
        expected = None
    if b"Traceback (most recent call last)" in outcome.stderr:
        outcome.failed, outcome.reason = True, f"traceback, exit {outcome.exit_code}"
        return outcome
    if outcome.exit_code not in OK_EXIT_CODES:
        outcome.failed, outcome.reason = True, f"exit code {outcome.exit_code}"
        return outcome
    if expected is not None and outcome.exit_code != expected.get("exit"):
        outcome.failed = outcome.incorrect = True
        outcome.reason = f"exit code {outcome.exit_code}, reference {expected.get('exit')}"
        return outcome
    if outcome.exit_code != 0:
        outcome.failed, outcome.reason = True, f"exit code {outcome.exit_code}"
        return outcome
    if outcome.op.out_csv is not None:
        digest = inputs.sha256_of(outcome.op.out_csv)
        if expected is not None and digest != expected.get("csv_sha256"):
            outcome.failed = outcome.incorrect = True
            outcome.reason = f"report CSV sha256 {digest[:12]} differs from the reference"
        return outcome
    try:
        flat = summarize_report(json.loads(outcome.stdout))
    except ValueError:
        outcome.failed = outcome.incorrect = True
        outcome.reason = "stdout is not JSON"
        return outcome
    bad = [p for p in _p_values(flat) if not 0.0 <= p <= 1.0]
    if bad:
        outcome.failed = outcome.incorrect = True
        outcome.reason = f"p-value {bad[0]!r} outside [0, 1]"
        return outcome
    if expected is not None and expected.get("summary") is not None:
        difference = compare_summary(flat, expected["summary"])
        if difference:
            outcome.failed = outcome.incorrect = True
            outcome.reason = difference
    return outcome


def load_reference(path: str, seed: int) -> dict:
    with open(path, encoding="utf-8") as handle:
        reference = json.load(handle)
    entry = reference["seeds"].get(str(inputs.input_seed(seed)))
    if entry is None:
        raise SystemExit(f"perfbench: {path} has no entry for input seed {inputs.input_seed(seed)}")
    return entry


# ---------------------------------------------------------------------------
# the untraced run


def run_untraced(workload: str, plan: Plan, runner: Runner, reference: dict, seconds: float) -> dict:
    expected = reference[workload]
    outcomes: list[Outcome] = []

    def record(outcome: Outcome, want: dict | None) -> Outcome:
        check_outcome(outcome, want)
        outcomes.append(outcome)
        if outcome.failed:
            print(f"perfbench: {outcome.op.name} failed: {outcome.reason}", file=sys.stderr)
        return outcome

    # Warm-up: the first start in a fresh checkout compiles the bytecode.
    record(runner.run(plan.setup_ops[0]), None)
    setup: list[Outcome] = []
    while len(setup) < SETUP_SAMPLES:
        for op in plan.setup_ops:
            setup.append(record(runner.run(op), None))

    # The commands of a pass run in turn until the time is up, at least once each.
    timed: list[Outcome] = []
    started = time.perf_counter()
    while len(timed) < len(plan.ops) or time.perf_counter() - started < seconds:
        op = plan.ops[len(timed) % len(plan.ops)]
        timed.append(record(runner.run(op), expected[op.name]))
    measured_s = time.perf_counter() - started

    for op in plan.check_ops:
        record(runner.run(op), expected[op.name])

    # Times are wall seconds from process start to exit, as a user waits for
    # them.  Each command's time is its median over the run, and one pass
    # takes the sum of those medians, so that a slow outlier (a burst of
    # contention on the host) does not move the figures, and every command
    # of the pass counts in them.
    pass_s = sum(statistics.median(o.wall_s for o in timed if o.op is op) for op in plan.ops)
    metrics = {
        "replicates_per_s": (sum(op.replicates for op in plan.ops) / pass_s, "1/s"),
        "rows_per_s": (sum(op.rows for op in plan.ops) / pass_s, "1/s"),
        "cmd_s.p50": (pass_s / len(plan.ops), "s"),
        "setup_s": (statistics.median(o.wall_s for o in setup), "s"),
        "peak_rss_mb": (max(o.peak_rss_mb for o in timed), "MB"),
    }
    detail = {
        "workload": workload,
        "commands_timed": len(timed),
        "measured_s": measured_s,
        "cmd_names": [o.op.name for o in timed],
        "cmd_wall_s": [o.wall_s for o in timed],
        "cmd_cpu_s": [o.cpu_s for o in timed],
        "cmd_steal_s": [o.steal_s for o in timed],
        "setup_wall_s": [o.wall_s for o in setup],
        "setup_cpu_s": [o.cpu_s for o in setup],
        "failures": {o.op.name: o.reason for o in outcomes if o.failed},
    }
    print(json.dumps({"detail": detail}), file=sys.stderr)
    return {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------


def machine_record() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_INPUTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "vartests", "cli.py")):
        print(f"perfbench: no vartests source under {root}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    print(json.dumps({"machine": machine_record()}), file=sys.stderr)
    work_dir = os.path.join(root, WORK_DIR_NAME)
    os.makedirs(work_dir, exist_ok=True)
    reference = load_reference(REFERENCE, args.seed)

    if args.trace:
        import layers

        result = layers.run_traced(root, work_dir, args.seed, reference)
    else:
        names = WORKLOAD_INPUTS[args.workload]
        manifest = inputs.make_inputs(work_dir, args.seed, names)
        stale = [n for n in names if manifest["files"][n]["sha256"] != reference["inputs"][n]]
        if stale:
            print(f"perfbench: generated inputs differ from the reference: {stale}", file=sys.stderr)
            return 1
        files = {name: os.path.join(manifest["dir"], name) for name in names}
        plan = make_plan(args.workload, args.seed, files, work_dir)
        runner = Runner(root, work_dir, deadline)
        try:
            result = run_untraced(args.workload, plan, runner, reference, args.seconds)
        except TimeoutError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
