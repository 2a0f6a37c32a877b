"""Seeded inputs for the benchmark workloads.

Everything the program reads is made here from one integer: the long-format
CSV datasets of the CLI workloads and the scenario file of ``sim-spread``.
The program sees only these files.  Each input set is written once per seed
into the work directory together with a manifest recording the seed, the row
counts and the sha256 of every file.

Values are written as ``repr(float(x))``: under numpy 2 ``repr`` of an
``np.float64`` is ``np.float64(...)``, which the CLI rightly rejects.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# Workload inputs are drawn from ``seed % REFERENCE_SEEDS`` so that every seed
# maps onto an input set whose outputs were recorded in reference.json.
REFERENCE_SEEDS = 16

TABLE1_REPS = 250
SPREAD_REPS = 1024  # two 512-replicate chunks per scenario, so both workers run

SPREAD_TESTS = (
    "levene:mean",
    "levene:median",
    "levene:trimmed",
    "levene:median:hines-hines",
    "levene:median:obrien",
    "bartlett",
    "box-anderson",
    "trend:median:increasing",
)

# (name, distribution, group sizes, sigma ratios)
SPREAD_SCENARIOS = (
    ("t3-unequal", "student-t:3", (8, 12, 16, 20), (1.0, 1.5, 2.0, 2.5)),
    ("chi3-null", "chi-squared:3", (5, 5, 5, 5, 5), (1.0, 1.0, 1.0, 1.0, 1.0)),
    ("exp-one-wide", "exponential", (40, 40, 40), (1.0, 1.0, 1.5)),
)

TALL_ROWS = 1_000_000
TALL_SPREADS = (1.0, 1.25, 1.5, 1.75, 2.0)
WIDE_GROUPS = 20_000
WIDE_ROWS_PER_GROUP = 5

# The CSV each minimal set-up command reads: 2 groups of 4 rows, the fewest
# on which every workload command (Hines-Hines needs 3 per group) succeeds.
MINIMAL_CSV = "group,value\na,1.0\na,2.5\na,4.0\na,7.5\nb,0.5\nb,4.0\nb,5.5\nb,11.0\n"


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def sha256_of(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _write_csv(path: str, labels: list[str], values: np.ndarray) -> None:
    lines = ["group,value"]
    lines.extend(f"{label},{float(x)!r}" for label, x in zip(labels, values.tolist()))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def write_tall_csv(path: str, seed: int) -> int:
    """10**6 rows in 5 groups with spreads 1:1.25:1.5:1.75:2, rows shuffled."""
    rng = _rng(seed, 1)
    k = len(TALL_SPREADS)
    group = rng.permutation(np.arange(TALL_ROWS) % k)
    values = 10.0 + np.asarray(TALL_SPREADS)[group] * rng.standard_normal(TALL_ROWS)
    _write_csv(path, [f"g{i + 1}" for i in group.tolist()], values)
    return TALL_ROWS


def write_wide_csv(path: str, seed: int) -> int:
    """20,000 groups of 5 rows with equal spread, in group order."""
    rng = _rng(seed, 2)
    rows = WIDE_GROUPS * WIDE_ROWS_PER_GROUP
    labels = [f"g{i:05d}" for i in range(WIDE_GROUPS) for _ in range(WIDE_ROWS_PER_GROUP)]
    _write_csv(path, labels, 10.0 + rng.standard_normal(rows))
    return rows


def write_spread_grid(path: str) -> int:
    """The sim-spread scenario file; master seeds come from ``simulate --seed``."""
    blocks = []
    for name, distribution, sizes, ratios in SPREAD_SCENARIOS:
        blocks.append(
            "\n".join(
                (
                    f"scenario = {name}",
                    f"distribution = {distribution}",
                    "group_sizes = " + ",".join(str(n) for n in sizes),
                    "sigma_ratios = " + ",".join(repr(r) for r in ratios),
                    "tests = " + ",".join(SPREAD_TESTS),
                )
            )
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n\n".join(blocks) + "\n")
    return len(SPREAD_SCENARIOS)


def write_minimal_csv(path: str) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(MINIMAL_CSV)
    return MINIMAL_CSV.count("\n") - 1


# file name -> (writer, takes the seed)
_FILES = {
    "tall.csv": (write_tall_csv, True),
    "wide.csv": (write_wide_csv, True),
    "spread-grid.txt": (write_spread_grid, False),
    "minimal.csv": (write_minimal_csv, False),
}


def make_inputs(work_dir: str, seed: int, names: tuple[str, ...]) -> dict:
    """Write the named input files for ``seed`` (folded) and return the manifest.

    Seeded files already written for the same input seed are reused when
    their sha256 still matches the manifest; the small fixed files are
    always rewritten.
    """
    folded = input_seed(seed)
    directory = os.path.join(work_dir, f"inputs-{folded}")
    os.makedirs(directory, exist_ok=True)
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = {"seed": seed, "input_seed": folded, "files": {}}
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest["files"] = json.load(handle)["files"]
    for name in names:
        path = os.path.join(directory, name)
        known = manifest["files"].get(name)
        writer, seeded = _FILES[name]
        if seeded and known and os.path.exists(path) and sha256_of(path) == known["sha256"]:
            continue
        rows = writer(path, folded) if seeded else writer(path)
        manifest["files"][name] = {"rows": rows, "sha256": sha256_of(path)}
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    manifest["dir"] = directory
    return manifest
