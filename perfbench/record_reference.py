#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks every command against.

Run once, from the root of a checkout, at the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

For every input seed ``0 .. REFERENCE_SEEDS - 1`` and every workload it
writes the sha256 of each generated input, the exit code of each command,
and either the sha256 of the simulate report CSV or the summary of the JSON
report (see ``run.summarize_report``).  Commands that crash are recorded
with their exit code and no result.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

import inputs
import run


def _record_op(runner: run.Runner, op: run.Op) -> dict:
    outcome = runner.run(op)
    entry: dict = {"exit": outcome.exit_code}
    if outcome.exit_code != 0 or b"Traceback" in outcome.stderr:
        entry["error"] = outcome.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
        return entry
    if op.out_csv is not None:
        entry["csv_sha256"] = inputs.sha256_of(op.out_csv)
    else:
        entry["summary"] = run.summarize_report(json.loads(outcome.stdout))
    return entry


def main() -> int:
    root = os.getcwd()
    work_dir = os.path.join(root, run.WORK_DIR_NAME)
    os.makedirs(work_dir, exist_ok=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root).stdout.strip()
    import numpy

    reference = {
        "recorded_at_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reference_seeds": inputs.REFERENCE_SEEDS,
        "rel_tol": run.REL_TOL,
        "abs_tol": run.ABS_TOL,
        "seeds": {},
    }
    all_files = tuple(sorted({name for names in run.WORKLOAD_INPUTS.values() for name in names}))
    for seed in range(inputs.REFERENCE_SEEDS):
        started = time.perf_counter()
        manifest = inputs.make_inputs(work_dir, seed, all_files)
        files = {name: os.path.join(manifest["dir"], name) for name in manifest["files"]}
        entry = {"inputs": {name: f["sha256"] for name, f in manifest["files"].items()}}
        runner = run.Runner(root, work_dir, deadline=time.monotonic() + 3600.0)
        for workload in run.WORKLOAD_INPUTS:
            plan = run.make_plan(workload, seed, files, work_dir)
            entry[workload] = {op.name: _record_op(runner, op) for op in plan.ops + plan.check_ops}
        # The traced run checks its table1 grid against this digest; no
        # untraced workload runs table1.
        out = os.path.join(work_dir, "table1.csv")
        argv = ("simulate", "--grid", "table1", "--seed", str(seed), "--reps", str(inputs.TABLE1_REPS), "--workers", "1", "--out", out)
        table1 = run.Op("simulate-table1", argv, 0, 0, out)
        entry["sim-table1"] = {table1.name: _record_op(runner, table1)}
        # The traced run compares sim-spread at 1 and 2 workers with this entry.
        w2 = run.make_plan("sim-spread", seed, files, work_dir).ops[0]
        argv = list(w2.argv)
        argv[argv.index("--workers") + 1] = "1"
        w1 = run.Op("simulate-spread-w1", tuple(argv), w2.rows, w2.replicates, w2.out_csv)
        spread = entry["sim-spread"]
        spread[w1.name] = _record_op(runner, w1)
        if spread[w1.name].get("csv_sha256") != spread[w2.name].get("csv_sha256"):
            raise SystemExit(f"seed {seed}: simulate reports differ between 1 and 2 workers")
        reference["seeds"][str(seed)] = entry
        print(f"seed {seed}: {time.perf_counter() - started:.1f}s", file=sys.stderr)
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
