"""Command-line interface.

Four subcommands: ``test`` (spread homogeneity), ``trend`` (monotone
spread), ``anova`` (means, classic/Welch/adaptive), and ``simulate``
(Monte Carlo size/power grids).  Dataset files are CSV with ``group``
and ``value`` columns: the plain rows of a regular file are parsed in
bulk, in one part or in one part per usable CPU (``_read_plain``), and
the csv row loop reads anything else.  Reports are JSON (default) or
plain text with full-precision numbers, so piping the JSON back into a
program loses nothing.

Exit codes: 0 on success, 2 for input or usage errors, when memory runs
out or when stdout cannot be written, 3 when the data are degenerate (a
test's statistic would be 0/0) or a tail probability fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import secrets
import stat
import sys
import warnings
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .means import AdaptiveConfig, adaptive_anova, anova_f, welch_anova
from .numerics import derive_seed
from .samples import CENTERS, MEAN, CenterKind, GroupedSample, _centered, _one_replicate, _rescaled, _scaled_back
from .sim import Scenario, SimulationReport, _usable_cpus, power_ordering_grid, run_grid, table1_grid
from .spread import _CORRECTED, CORRECTIONS, TestResult, _check_correction, as_correction
from .spread import bartlett_m, box_anderson_b3, levene_test
from .trend import SIDES, trend_test

__all__ = ["main"]

# Bytes read per block of a dataset file (then up to the next line feed),
# which bounds the memory a block's columns take while parsing.
_BLOCK_BYTES = 1 << 20

# The smallest part of a dataset file worth a process of its own.  A split
# cost a fixed 15-20 ms when it also imported multiprocessing (about 14 ms
# of that), and broke even at parts of about 0.5 MiB: `anova` on a 1 MiB
# plain file took as long in two parts as in one (medians of 11 runs on a
# 2-vCPU Xeon), and saved 58 ms of 420 on a 4 MiB file.  Eight times that
# break-even keeps the saving well clear of the noise.
_MIN_PART_BYTES = 4 << 20

_REPORT_COLUMNS = (
    "grid_seed",
    "scenario",
    "distribution",
    "group_sizes",
    "sigma_ratios",
    "mean_shifts",
    "nominal_level",
    "replications",
    "master_seed",
    "test",
    "rejection_rate",
    "mc_standard_error",
    "error_count",
)


# ---------------------------------------------------------------------------
# dataset files


def _read_dataset(path: str, group_order: Sequence[str] | None = None) -> GroupedSample:
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ValidationError(f"cannot read dataset {path!r}: {exc}") from None
    try:
        with handle:
            labels, codes, values = _read_columns(handle, path)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dataset {path!r} is not UTF-8 text ({exc.reason})") from None
    if not labels:
        raise ValidationError(f"dataset {path!r} has no data rows")
    return GroupedSample._from_codes(labels, codes, values, group_order)


def _read_columns(handle: TextIO, path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The labels, each row's group code and the values of an open dataset file.

    The plain lines at the start of a regular file are read in bulk by
    ``_read_plain``; from the first block of lines that is not plain, and
    for any other input (a pipe, or a header that is not the first line
    of the file), the csv row loop reads on to the end: it handles quoted
    fields and names the physical line of a bad row.
    """
    header_reader = csv.reader(handle)
    header = next(header_reader, [])
    for required in ("group", "value"):
        if required not in header:
            raise ValidationError(f"dataset {path!r} is missing the {required!r} column")
    # A repeated column name means its last occurrence, as in csv.DictReader.
    group_at = len(header) - 1 - header[::-1].index("group")
    value_at = len(header) - 1 - header[::-1].index("value")
    lines_read = header_reader.line_num
    labels: dict[str, int] = {}
    blocks = [(np.empty(0, np.uint32), np.empty(0))]
    plain = _read_plain(handle.fileno(), len(header), group_at, value_at) if lines_read == 1 else None
    if plain is not None:  # a plain block holds no blank line: one line per row
        plain_labels, plain_blocks, stop = plain
        labels = {label: code for code, label in enumerate(plain_labels)}
        blocks += plain_blocks
        lines_read += sum(c.size for c, _ in plain_blocks)
        handle.seek(stop)
    if plain is None or stop < os.fstat(handle.fileno()).st_size:
        row_labels, row_values = _read_rows(handle, path, lines_read, group_at, value_at)
        blocks.append((_code_labels(row_labels, dict(labels), labels), np.array(row_values, dtype=float)))
    return list(labels), *(np.concatenate(column) for column in zip(*blocks))


def _read_plain(
    fd: int, width: int, group_at: int, value_at: int
) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]], int] | None:
    """The plain rows at the start of a regular file: labels, blocks of (codes, values), and the offset where they stop.

    The data bytes after a header that ends at the first line feed are cut
    at line feeds into at most one part per usable CPU, each at least
    ``_MIN_PART_BYTES`` long, or into one part.  This process parses the first part and a forked
    worker each other one (see ``_parse_part``); a worker's codes are
    remapped here to the order of first appearance over the whole file.
    The rows stop at the file's end or at the first block that is not
    plain; a worker that fails or does not start (as without ``fork``)
    stops its part at its first byte.  Any other file gives None.
    """
    status = os.fstat(fd)
    if not stat.S_ISREG(status.st_mode):
        return None
    head = os.pread(fd, 1 << 16, 0)
    start, stop = head.find(b"\n") + 1, status.st_size
    if not start or b"\r" in head[: start - 1].removesuffix(b"\r"):  # a lone \r ends the csv header first
        return None
    count = max(1, min(_usable_cpus(), (stop - start) // _MIN_PART_BYTES))
    ends = sorted({stop, *(_line_end(fd, start + (stop - start) * i // count, stop) for i in range(1, count))})
    spans = list(zip([start, *ends], ends))
    jobs = [functools.partial(_parse_part, fd, lo, hi, width, group_at, value_at) for lo, hi in spans]
    if len(jobs) == 1:
        parts = [jobs[0]()]
    else:
        from . import _parts  # imported here: most files are read in one part

        with _parts.forked(jobs[1:]) as results:
            parts = [jobs[0](), *results]
    labels, blocks, resume_at = parts[0]  # the first part's codes are already in file order
    order = {label: code for code, label in enumerate(labels)}
    for (lo, _), part in zip(spans[1:], parts[1:]):
        if resume_at < lo:  # the part before stopped early
            break
        part_labels, part_blocks, resume_at = part or ([], [], lo)
        remap = np.array([order.setdefault(label, len(order)) for label in part_labels], dtype=np.uint32)
        for codes, _ in part_blocks:
            codes[:] = remap[codes]
        blocks += part_blocks
    return list(order), blocks, resume_at


def _line_end(fd: int, offset: int, stop: int) -> int:
    """The offset just past the first line feed at or after ``offset``, or ``stop`` if none comes before it."""
    while offset < stop:
        window = os.pread(fd, min(1 << 12, stop - offset), offset)
        if not window:
            break
        found = window.find(b"\n")
        if found >= 0:
            return offset + found + 1
        offset += len(window)
    return stop


def _parse_part(
    fd: int, lo: int, hi: int, width: int, group_at: int, value_at: int
) -> tuple[list[str], list[tuple[np.ndarray, np.ndarray]], int]:
    """The plain blocks in bytes ``lo:hi`` as labels and (codes, values), and the offset where they stop.

    The bytes are read in blocks of about ``_BLOCK_BYTES`` that end at a
    line feed, each parsed by ``_parse_plain_block`` with the part's own
    codes.  The offset is ``hi``, or the start of the first block that is
    not plain or not UTF-8.
    """
    codes: dict[str, int] = {}
    labels: dict[str, int] = {}
    blocks = []
    while lo < hi:
        end = _line_end(fd, min(lo + _BLOCK_BYTES, hi) - 1, hi)
        try:
            parsed = _parse_plain_block(os.pread(fd, end - lo, lo).decode("utf-8"), width, group_at, value_at, codes, labels)
        except UnicodeDecodeError:
            parsed = None
        if parsed is None:
            break
        blocks.append(parsed)
        lo = end
    return list(labels), blocks, lo


def _code_labels(cells: Sequence[str], codes: dict[str, int], labels: dict[str, int]) -> np.ndarray | None:
    """Each cell's group code, or None if a label is empty.

    ``codes`` maps the cells seen so far, padded or not, and ``labels`` the
    stripped labels, to their codes in order of first appearance.
    """
    try:  # most blocks hold no new cell
        return np.fromiter(map(codes.__getitem__, cells), dtype=np.uint32, count=len(cells))
    except KeyError:
        for cell in dict.fromkeys(cells):
            label = cell.strip()
            if not label:
                return None
            codes[cell] = labels.setdefault(label, len(labels))
    return _code_labels(cells, codes, labels)


def _parse_plain_block(
    text: str, width: int, group_at: int, value_at: int, codes: dict[str, int], labels: dict[str, int]
) -> tuple[np.ndarray, np.ndarray] | None:
    """A block of plain CSV lines as group codes (see ``_code_labels``) and values, or None if it is not plain."""
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if text.endswith("\n"):
        text = text[:-1]
    # Every line holds width - 1 commas and ends in a newline (but the
    # last): the separators must run (width - 1 commas, newline) over and
    # over.  This also rules out blank lines.  A field longer than the csv
    # module's limit is left to the row loop to reject.
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    separator_at = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    is_newline = raw[separator_at] == ord("\n")
    if is_newline.size % width != width - 1:
        return None
    if not np.array_equal(is_newline, np.arange(is_newline.size) % width == width - 1):
        return None
    if np.diff(separator_at, prepend=-1, append=raw.size).max() - 1 > csv.field_size_limit():
        return None
    cells = text.replace("\n", ",").split(",")
    try:
        values = np.array(cells[value_at::width], dtype=np.float64)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    block_codes = _code_labels(cells[group_at::width], codes, labels)
    return None if block_codes is None else (block_codes, values)


def _read_rows(
    lines: Iterable[str], path: str, lines_before: int, group_at: int, value_at: int
) -> tuple[list[str], list[float]]:
    """Parse CSV lines one row at a time; errors cite the physical line."""
    reader = csv.reader(lines)
    labels: list[str] = []
    values: list[float] = []
    try:
        for row in reader:
            if not row:
                continue  # blank line
            line = lines_before + reader.line_num
            label = row[group_at].strip() if group_at < len(row) else ""
            raw = row[value_at].strip() if value_at < len(row) else ""
            if not label:
                raise ValidationError(f"{path}:{line}: empty group label")
            try:
                value = float(raw)
            except ValueError:
                raise ValidationError(f"{path}:{line}: bad value {raw!r}") from None
            if not math.isfinite(value):
                raise ValidationError(f"{path}:{line}: non-finite value {raw!r}")
            labels.append(label)
            values.append(value)
    except csv.Error as exc:
        raise ValidationError(f"{path}:{lines_before + reader.line_num}: {exc}") from None
    return labels, values


def _parse_group_order(text: str | None) -> list[str] | None:
    if text is None:
        return None
    order = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not order:
        raise ValidationError("--group-order lists no labels")
    return order


# ---------------------------------------------------------------------------
# report documents


def _center_fields(kind: CenterKind | None) -> dict[str, Any]:
    if kind is None:
        return {"center": None, "trim_proportion": None}
    return {"center": kind.name, "trim_proportion": kind.trim_proportion}


def _group_rows(sample: GroupedSample, kind: CenterKind, correction: str) -> list[dict[str, Any]]:
    """Per-group summaries: location estimate, mean analyzed deviation, variance."""
    labels = sample.labels
    groups, shift = _rescaled(sample.values)
    centers, z = _centered(groups, kind)
    analyzed = _one_replicate(_CORRECTED[correction], z, labels)
    centers = _scaled_back(centers, shift, "the center of group {!r}", labels).tolist()
    means = _scaled_back([d.mean() for d in analyzed], shift, "the mean deviation of group {!r}", labels).tolist()
    variances = [arr.var(ddof=1) if arr.size > 1 else 0.0 for arr in groups]
    variances = _scaled_back(variances, 2 * shift, "the variance of group {!r}", labels).tolist()
    return [
        {"label": label, "size": int(arr.size), "center": c, "deviation_mean": m, "variance": v if arr.size > 1 else None}
        for label, arr, c, m, v in zip(labels, groups, centers, means, variances)
    ]


def _test_result_fields(result: TestResult) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "method": result.method,
        "statistic": float(result.statistic),
        "df1": float(result.df1),
        "df2": None if result.df2 is None else float(result.df2),
        "p_value": float(result.p_value),
    }
    doc.update(_center_fields(result.center))
    doc["correction"] = result.correction
    if result.details:
        doc["details"] = {key: float(value) for key, value in result.details.items()}
    return doc


def _finish(doc: dict[str, Any], caught: list[warnings.WarningMessage], fmt: str) -> int:
    doc["warnings"] = [str(item.message) for item in caught]
    return _print_out(json.dumps(doc, indent=2) if fmt == "json" else _render_text(doc), "the report")


def _print_out(text: str, what: str) -> int:
    """Print ``text`` to stdout and flush it: 0, or 2 after one error line if stdout cannot take it (a closed pipe, a full disk)."""
    try:
        print(text)
        sys.stdout.flush()
    except OSError as exc:  # then what is still buffered, flushed at exit, goes nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write {what}: {exc}", file=sys.stderr)
        return 2
    return 0


def _scalar_text(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _render_text(doc: dict[str, Any]) -> str:
    lines: list[str] = []
    for key, value in doc.items():
        if key == "groups":
            lines.append("groups:")
            for row in value:
                pieces = " ".join(f"{k}={_scalar_text(v)}" for k, v in row.items())
                lines.append(f"  {pieces}")
        elif isinstance(value, dict):
            lines.append(f"{key}:")
            for sub_key, sub_value in value.items():
                lines.append(f"  {sub_key}: {_scalar_text(sub_value)}")
        elif key == "warnings":
            if value:
                lines.append("warnings:")
                lines.extend(f"  - {item}" for item in value)
            else:
                lines.append("warnings: none")
        elif isinstance(value, (list, tuple)):
            lines.append(f"{key}: {', '.join(_scalar_text(item) for item in value)}")
        else:
            lines.append(f"{key}: {_scalar_text(value)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _report(
    args: argparse.Namespace,
    document: Callable[[GroupedSample], dict[str, Any]],
    kind: CenterKind,
    correction: str = "none",
    group_order: list[str] | None = None,
    warned: Sequence[warnings.WarningMessage] = (),
) -> int:
    """Read the dataset, compute the document recording warnings (after ``warned``), add the group rows, print."""
    sample = _read_dataset(args.input, group_order)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        doc = document(sample)
    doc["groups"] = _group_rows(sample, kind, correction)
    return _finish(doc, [*warned, *caught], args.format)


# The center each alias of ``--method levene`` fixes.
_FIXED_CENTERS = {"bfl": "median", "trimmed": "trimmed"}


def _center_kind(name: str, proportion: float | None) -> CenterKind:
    """The center ``name``; ``--trim-proportion`` gives a trimmed center's proportion, and no other center takes one."""
    if proportion is not None and name != "trimmed":
        raise ValidationError(f"--trim-proportion applies to trimmed centers only, not to the {name} center")
    return CenterKind(name, proportion)


def _cmd_test(args: argparse.Namespace) -> int:
    method = args.method
    if method in ("bartlett", "box-anderson"):
        if args.center is not None or args.correction is not None:
            raise ValidationError(f"--center/--correction do not apply to --method {method}")
        if args.trim_proportion is not None:
            raise ValidationError(f"--trim-proportion does not apply to --method {method}")
        statistic = bartlett_m if method == "bartlett" else box_anderson_b3
        return _report(args, lambda sample: _test_result_fields(statistic(sample)), MEAN)
    fixed = _FIXED_CENTERS.get(method)
    if fixed is not None and args.center not in (None, fixed):
        raise ValidationError(f"--method {method} fixes the center to {fixed}; use --method levene to vary it")
    center = _center_kind(fixed or args.center or "median", args.trim_proportion)
    correction = as_correction(args.correction)
    _check_correction(center, correction)
    return _report(
        args, lambda sample: _test_result_fields(levene_test(sample, center, correction)), center, correction
    )


def _parse_scores(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad --scores {text!r}; expected comma-separated numbers") from None


def _cmd_trend(args: argparse.Namespace) -> int:
    center = _center_kind(args.center or "median", args.trim_proportion)
    scores = _parse_scores(args.scores)

    def document(sample: GroupedSample) -> dict[str, Any]:
        result = trend_test(sample, scores, center)
        doc: dict[str, Any] = {
            "method": "trend",
            "beta_hat": float(result.beta_hat),
            "std_error": float(result.std_error),
            "z_statistic": float(result.z_statistic),
            "side": args.side,
            "p_value": float(result.p_value(args.side)),
            "p_increasing": float(result.p_increasing),
            "p_decreasing": float(result.p_decreasing),
            "p_two_sided": float(result.p_two_sided),
        }
        doc.update(_center_fields(result.center))
        doc["scores"] = [float(w) for w in result.scores]
        return doc

    return _report(args, document, center, group_order=_parse_group_order(args.group_order))


def _cmd_anova(args: argparse.Namespace) -> int:
    method = args.method
    if method != "adaptive" and (args.prelim_level is not None or args.prelim_center is not None):
        raise ValidationError("--prelim-level/--prelim-center only apply to --method adaptive")
    if method != "adaptive" and args.trim_proportion is not None:
        raise ValidationError(f"--trim-proportion does not apply to --method {method}")

    level = 0.15 if args.prelim_level is None else args.prelim_level
    with warnings.catch_warnings(record=True) as warned:  # a level's warning goes into the report
        warnings.simplefilter("always")
        if method == "adaptive":
            config = AdaptiveConfig(level, _center_kind(args.prelim_center or "median", args.trim_proportion))

    def document(sample: GroupedSample) -> dict[str, Any]:
        if method == "classic":
            return _test_result_fields(anova_f(sample))
        if method == "welch":
            return _test_result_fields(welch_anova(sample))
        outcome = adaptive_anova(sample, config)
        return {
            "method": "adaptive",
            "branch": outcome.chosen_branch,
            "statistic": float(outcome.final.statistic),
            "df1": float(outcome.final.df1),
            "df2": float(outcome.final.df2),
            "p_value": float(outcome.final.p_value),
            "preliminary_level": float(config.preliminary_level),
            "preliminary": _test_result_fields(outcome.preliminary),
            "final": _test_result_fields(outcome.final),
        }

    return _report(args, document, MEAN, warned=warned)


# ---------------------------------------------------------------------------
# simulate


_LIST_KEYS = ("group_sizes", "sigma_ratios", "mean_shifts", "tests")
_SCENARIO_KEYS = ("distribution", *_LIST_KEYS, "nominal_level", "replications", "master_seed")


def _parse_scenario_file(path: str, default_reps: int, grid_seed: int) -> tuple[Scenario, ...]:
    """Parse a scenario file: blocks of ``key = value`` lines.

    A block starts with ``scenario = NAME``.  Lists are comma-separated;
    blank lines and ``#`` lines are skipped.  Scenarios without an
    explicit ``master_seed`` get one derived from the grid seed and
    their position in the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            raw_lines = handle.readlines()
    except OSError as exc:
        raise ValidationError(f"cannot read scenario file {path!r}: {exc}") from None
    blocks: list[dict[str, str]] = []
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        if key == "scenario":
            current = {"scenario": value}
            blocks.append(current)
            continue
        if current is None:
            raise ValidationError(f"{path}:{lineno}: file must open a block with 'scenario = NAME' first")
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in current:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r} in scenario {current['scenario']!r}")
        current[key] = value
    if not blocks:
        raise ValidationError(f"scenario file {path!r} defines no scenarios")

    scenarios = []
    for index, block in enumerate(blocks):
        name = block["scenario"]
        # Lists are split here; Scenario converts and checks their pieces.
        lists = {key: tuple(map(str.strip, block[key].split(","))) for key in _LIST_KEYS if key in block}
        try:
            for required in ("group_sizes", "sigma_ratios", "tests"):
                if required not in block:
                    raise ValidationError(f"missing key {required!r}")
            scenarios.append(
                Scenario(
                    name=name,
                    distribution=block.get("distribution", "normal"),
                    group_sizes=lists["group_sizes"],
                    sigma_ratios=lists["sigma_ratios"],
                    mean_shifts=lists.get("mean_shifts"),
                    tests=lists["tests"],
                    nominal_level=float(block.get("nominal_level", "0.05")),
                    replications=int(block["replications"]) if "replications" in block else default_reps,
                    master_seed=int(block["master_seed"]) if "master_seed" in block else derive_seed(grid_seed, index),
                )
            )
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"{path}: scenario {name!r}: {exc}") from None
    return tuple(scenarios)


def _format_ratio(value: float) -> str:
    """``format(value, "g")`` where that reads back as ``value``, else ``repr(value)``."""
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def write_report_csv(report: SimulationReport, path: str, grid_seed: int) -> None:
    """Write one CSV row per (scenario, test) cell; numbers keep full precision."""
    try:
        handle = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write report {path!r}: {exc}") from None
    with handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_REPORT_COLUMNS)
        for cell in report.cells:
            scenario = cell.scenario
            writer.writerow(
                (
                    str(grid_seed),
                    scenario.name,
                    scenario.distribution,
                    ":".join(str(n) for n in scenario.group_sizes),
                    ":".join(_format_ratio(r) for r in scenario.sigma_ratios),
                    ":".join(_format_ratio(m) for m in scenario.mean_shifts),
                    repr(scenario.nominal_level),
                    str(scenario.replications),
                    str(scenario.master_seed),
                    cell.test,
                    repr(cell.rejection_rate),
                    repr(cell.mc_standard_error),
                    str(cell.error_count),
                )
            )


def _cmd_simulate(args: argparse.Namespace) -> int:
    grid_seed = secrets.randbits(63) if args.seed is None else args.seed
    if not 0 <= grid_seed < 2**64:
        raise ValidationError(f"--seed must lie in [0, 2**64), got {grid_seed!r}")
    if args.grid == "table1":
        scenarios = table1_grid(grid_seed, args.reps)
    elif args.grid == "power-ordering":
        scenarios = tuple(
            scenario
            for center in CENTERS
            for scenario in power_ordering_grid(center, grid_seed, args.reps)
        )
    else:
        scenarios = _parse_scenario_file(args.grid, args.reps, grid_seed)
    report = run_grid(scenarios, workers=args.workers)
    write_report_csv(report, args.out, grid_seed)
    summary = f"wrote {len(report.cells)} cells ({len(scenarios)} scenarios) to {args.out} "
    return _print_out(summary + f"[grid seed {grid_seed}, {report.elapsed:.1f}s]", "the summary")


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vartests",
        description="Levene-type spread tests, spread-trend tests, and adaptive ANOVA.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV dataset with 'group' and 'value' columns")
        p.add_argument("--format", choices=("json", "text"), default="json", help="report format")

    p_test = sub.add_parser("test", help="test equality of spread across groups")
    add_common(p_test)
    p_test.add_argument(
        "--method",
        choices=("levene", "bfl", "trimmed", "bartlett", "box-anderson"),
        default="levene",
        help="bfl = levene with median centers; trimmed = levene with trimmed-mean centers",
    )
    p_test.add_argument("--center", choices=CENTERS, default=None)
    p_test.add_argument("--correction", choices=CORRECTIONS, default=None)
    p_test.add_argument("--trim-proportion", type=float, default=None, help="tail fraction for trimmed centers (default 0.25)")
    p_test.set_defaults(handler=_cmd_test)

    p_trend = sub.add_parser("trend", help="test for a monotone trend in spread")
    add_common(p_trend)
    p_trend.add_argument("--scores", default=None, help="comma-separated group scores (default 1..k)")
    p_trend.add_argument("--center", choices=CENTERS, default=None)
    p_trend.add_argument("--trim-proportion", type=float, default=None)
    p_trend.add_argument("--side", choices=SIDES, default="two-sided")
    p_trend.add_argument("--group-order", default=None, help="comma-separated labels fixing the group order")
    p_trend.set_defaults(handler=_cmd_trend)

    p_anova = sub.add_parser("anova", help="test equality of means")
    add_common(p_anova)
    p_anova.add_argument("--method", choices=("classic", "welch", "adaptive"), default="adaptive")
    p_anova.add_argument("--prelim-level", type=float, default=None, help="level of the preliminary spread test")
    p_anova.add_argument("--prelim-center", choices=CENTERS, default=None)
    p_anova.add_argument("--trim-proportion", type=float, default=None)
    p_anova.set_defaults(handler=_cmd_anova)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo size/power grid")
    p_sim.add_argument("--grid", required=True, help="'table1', 'power-ordering', or a scenario file path")
    p_sim.add_argument("--seed", type=int, default=None, help="grid seed (default: fresh OS entropy, recorded in the output)")
    p_sim.add_argument("--reps", type=int, default=10000, help="replications per scenario (scenario files may override)")
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes; results do not depend on this")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DegenerateDataError as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a tail probability that does not converge
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a grid whose replicates are too many to list
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
