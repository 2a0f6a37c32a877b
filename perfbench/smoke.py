#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the smallest run length.

From the root of a checkout::

    python3 perfbench/smoke.py

It checks that

* each workload's untraced run prints exactly the result keys of the
  contract, with metric names and units equal to ``end_to_end`` in
  ``BENCHMARK.json``, and reports correct outputs;
* a traced run prints exactly the ``per_layer`` metrics;
* a deliberately corrupted reference digest, in a copy of the checkout,
  is reported as a failed operation and makes the run incorrect;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SEED = 0
WORK_DIR = ".perfbench_work"  # ignored by git


def bench(workload: str, trace: int = 0, cwd: str = ".") -> subprocess.CompletedProcess:
    argv = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or not isinstance(result["failed"], int):
        raise AssertionError(f"attempted/failed {result['attempted']!r}/{result['failed']!r}")
    return result


def check_metrics(result: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"metrics differ from BENCHMARK.json: extra {sorted(set(got) - set(want))}, "
                             f"missing {sorted(set(want) - set(got))}, units {sorted(set(got.items()) ^ set(want.items()))}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
            raise AssertionError(f"{name} value {metric['value']!r} is not a number")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    os.makedirs(WORK_DIR, exist_ok=True)
    checks: list[tuple[str, object]] = []

    def check(name: str, fn) -> None:
        try:
            fn()
        except (AssertionError, ValueError, subprocess.TimeoutExpired) as exc:
            checks.append((name, exc))
            print(f"FAIL {name}: {exc}")
        else:
            checks.append((name, None))
            print(f"ok   {name}")

    def untraced(workload: str) -> None:
        result = result_of(bench(workload))
        check_metrics(result, declared["end_to_end"])
        if not result["correct"]:
            raise AssertionError("outputs reported incorrect")

    for workload in declared["workloads"]:
        check(f"{workload['name']} end-to-end metrics", lambda w=workload["name"]: untraced(w))

    def traced() -> None:
        result = result_of(bench(declared["workloads"][0]["name"], trace=1))
        check_metrics(result, declared["per_layer"])
        if not result["correct"]:
            raise AssertionError("traced run reported incorrect")

    check("traced per-layer metrics", traced)

    def copy_tree(tree: str, with_source: bool) -> None:
        shutil.copy("BENCHMARK.json", tree)
        for path in declared["paths"] + (["src"] if with_source else []):
            shutil.copytree(path, os.path.join(tree, path), ignore=shutil.ignore_patterns("__pycache__"))

    def corrupted() -> None:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tree:
            copy_tree(tree, with_source=True)
            path = os.path.join(tree, "perfbench", "reference.json")
            with open(path, encoding="utf-8") as handle:
                reference = json.load(handle)
            reference["seeds"][str(SEED)]["sim-spread"]["simulate-spread-w2"]["csv_sha256"] = "0" * 64
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(reference, handle)
            result = result_of(bench("sim-spread", cwd=tree))
        if result["failed"] < 1 or result["correct"]:
            raise AssertionError(f"corrupted digest not reported: {result}")

    check("corrupted reference digest is a failed op", corrupted)

    def bare_directory() -> None:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as bare:
            copy_tree(bare, with_source=False)
            proc = bench("sim-spread", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError(f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    check("no program source: non-zero exit, no result", bare_directory)

    failed = [name for name, exc in checks if exc is not None]
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
