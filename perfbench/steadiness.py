#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the root of a checkout::

    python3 perfbench/steadiness.py --seeds 0-9 --traced --out perfbench/results/baseline.json

For every workload and seed it runs ``run.py --trace 0`` once, then reports
per end-to-end metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a share
of the median.  The bound of each metric in ``BENCHMARK.json`` is printed
beside its spread.  Runs are sequential, so no two compete for the CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for piece in text.split(","):
        low, _, high = piece.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict, float]:
    """One benchmark run: (result, stderr records, wall seconds)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    records = {}
    for line in proc.stderr.splitlines():
        if line.startswith("{"):
            records.update(json.loads(line))
    return json.loads(proc.stdout.strip().splitlines()[-1]), records, wall


def spread_of(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all of BENCHMARK.json)")
    parser.add_argument("--out", default=None, help="write runs and spreads to this JSON file")
    parser.add_argument("--traced", action="store_true", help="also make one traced run of the first workload, first seed")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report: dict = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, records, wall = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "wall_s": wall, "result": result, "detail": records.get("detail")})
            report.setdefault("machine", records.get("machine"))
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", file=sys.stderr)
        spreads = {}
        for name in bounds:
            spreads[name] = spread_of([r["result"]["metrics"][name]["value"] for r in runs])
            spreads[name]["bound"] = bounds[name]
            print(f"  {workload} {name}: median {spreads[name]['median']:.6g} "
                  f"spread {spreads[name]['spread']:.4f} (bound {bounds[name]})", file=sys.stderr)
        report["workloads"][workload] = {"runs": runs, "spreads": spreads}
    if args.traced:
        result, records, wall = run_once(workloads[0], seeds[0], seconds, trace=1)
        report["traced"] = {"workload": workloads[0], "seed": seeds[0], "wall_s": wall, "result": result,
                            "detail": records.get("detail")}
        print(f"traced run: {wall:.1f}s correct={result['correct']} failed={result['failed']}/{result['attempted']}",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
