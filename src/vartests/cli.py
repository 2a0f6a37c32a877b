"""Command-line interface.

Four subcommands: ``test`` (spread homogeneity), ``trend`` (monotone
spread), ``anova`` (means, classic/Welch/adaptive), and ``simulate``
(Monte Carlo size/power grids).  The first three spell their flags as
one label of ``sim.compile_test_label``'s grammar, which ``sim._compile``
checks and compiles as it does a ``simulate`` label, and report it as
``test``.  They read CSV with ``group`` and ``value`` columns from a
file or a pipe, in blocks, by one loop (``_Reader``), and cache the
parsed columns of a regular file of 4 MiB or more by its sha256
(``_cached_columns``).  Reports are JSON (default) or plain text with
full-precision numbers.

Exit codes: 0 on success, 2 for input or usage errors, when memory runs
out or when stdout cannot be written, 3 when the data are degenerate (a
test's statistic would be 0/0) or a tail probability fails to converge.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import secrets
import stat
import sys
import tempfile
import warnings
from typing import Any, Iterator, Sequence

import numpy as np

from .errors import DegenerateDataError, ValidationError, _converted
from .means import adaptive_anova, anova_f, welch_anova
from .numerics import derive_seed
from .samples import CENTERS, MEAN, CenterKind, GroupedSample, _centered, _one_replicate, _rescaled, _scaled_back
from .sim import _DEFAULT_CENTER, _OPTION_DEFAULTS, Scenario, SimulationReport, _compile, _Compiled, _usable_cpus
from .sim import power_ordering_grid, run_grid, table1_grid
from .spread import _CORRECTED, CORRECTIONS, TestResult, bartlett_m, box_anderson_b3, levene_test
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
        handle = open(path, "rb", buffering=0)
    except OSError as exc:
        raise ValidationError(f"cannot read dataset {path!r}: {exc}") from None
    try:
        with handle:
            labels, codes, values = _cached_columns(handle.fileno(), path)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"dataset {path!r} is not UTF-8 text ({exc.reason})") from None
    if not labels:
        raise ValidationError(f"dataset {path!r} has no data rows")
    return GroupedSample._from_codes(labels, codes, values, group_order)


# A regular file this large is parsed once and its columns cached.  A hit
# costs the file's sha256 and a load (about 20 ms for 21 MB on a 2-vCPU Xeon)
# against a parse of about 0.3 s; a miss adds the hash and a write.
_MIN_CACHED_BYTES = 4 << 20
_CACHE_SUFFIX = ".v1"  # bump whenever what ``_read_columns`` returns changes
_CACHE_ENTRIES = 4


def _cached_columns(fd: int, path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``_read_columns``, cached for a regular file of at least ``_MIN_CACHED_BYTES``.

    An entry is keyed by the sha256 of the file's bytes, so it holds what
    parsing those bytes returns.  It is stored only if the file's size and
    times are the same after the parse as before the hash.  Any error of
    the cache, or an entry that is not well formed, is a miss: the cache
    never changes what is reported.
    """
    before = os.fstat(fd)
    size = before.st_size if stat.S_ISREG(before.st_mode) else None
    if size is None or size < _MIN_CACHED_BYTES:
        return _read_columns(fd, path, size)
    version = (before.st_size, before.st_mtime_ns, before.st_ctime_ns)
    entry = None
    try:
        digest, offset = hashlib.sha256(), 0
        while block := os.pread(fd, _BLOCK_BYTES, offset):
            digest.update(block)
            offset += len(block)
        entry = os.path.join(_cache_dir(), digest.hexdigest() + _CACHE_SUFFIX)
        with open(entry, "rb") as cached:
            labels = json.loads(cached.readline())
            codes = np.load(cached, allow_pickle=False)
            values = np.load(cached, allow_pickle=False)
        if not (
            isinstance(labels, list) and all(isinstance(label, str) for label in labels)
            and (codes.dtype, values.dtype) == (np.uint32, np.float64)
            and codes.shape == values.shape == (codes.size,)
            and (codes.size == 0 or codes.max() < len(labels))
        ):
            raise ValueError(f"the cache entry {entry!r} is malformed")
        os.utime(entry)  # the newest entries are the ones kept
        return labels, codes, values
    except (OSError, ValueError, EOFError):
        pass
    columns = _read_columns(fd, path, size)
    after = os.fstat(fd)
    if entry and (after.st_size, after.st_mtime_ns, after.st_ctime_ns) == version:
        with contextlib.suppress(OSError, ValueError):
            _store_entry(entry, *columns)
    return columns


def _cache_dir() -> str:
    """``$XDG_CACHE_HOME/vartests`` (``~/.cache/vartests`` if that is unset or relative), made if missing.

    OSError unless the directory is this user's and no one else can write to it.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    directory = os.path.join(base if os.path.isabs(base) else os.path.join(os.path.expanduser("~"), ".cache"), "vartests")
    if not os.path.isabs(directory):
        raise OSError("no cache directory")
    os.makedirs(directory, mode=0o700, exist_ok=True)
    status = os.stat(directory)
    if status.st_uid != os.getuid() or status.st_mode & 0o022:
        raise OSError(f"the cache directory {directory!r} is not private")
    return directory


def _store_entry(entry: str, labels: list[str], codes: np.ndarray, values: np.ndarray) -> None:
    """Write an entry through a temporary file, then delete all but the newest ``_CACHE_ENTRIES`` files."""
    directory = os.path.dirname(entry)
    fd, temporary = tempfile.mkstemp(dir=directory)
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(json.dumps(labels).encode() + b"\n")  # a numpy str array would drop a trailing NUL
            np.save(out, codes, allow_pickle=False)
            np.save(out, values, allow_pickle=False)
        os.replace(temporary, entry)
    except BaseException:
        os.unlink(temporary)
        raise
    files = sorted(os.scandir(directory), key=lambda each: (each.stat().st_mtime_ns, each.name), reverse=True)
    for stale in files[_CACHE_ENTRIES:]:
        os.unlink(stale.path)


def _read_columns(fd: int, path: str, size: int | None) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The labels, each row's group code and the values of an open file of ``size`` bytes, or of a pipe (None), by ``_Reader``.

    A regular file is cut at line breaks into at most one part per usable
    CPU, each at least ``_MIN_PART_BYTES`` long; this process reads the
    first and a forked worker each other one.  A worker's rows (its codes
    remapped to the order of first appearance) are used only if this
    process's rows end exactly where they start, else it reads them itself.
    """
    count = 1 if size is None else max(1, min(_usable_cpus(), size // _MIN_PART_BYTES))
    ends = [math.inf] if size is None else sorted({size, *(_line_end(fd, size * i // count, size) for i in range(1, count))})
    reader = _Reader(fd, 0, ends[0], size, path)
    try:
        header = next(csv.reader(reader.lines(reader.block().removeprefix("\ufeff"))), [])
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line}: {exc}") from None
    for required in ("group", "value"):
        if required not in header:
            raise ValidationError(f"dataset {path!r} is missing the {required!r} column")
    spans = list(zip(ends, ends[1:]))
    jobs = [functools.partial(_Reader(fd, lo, hi, size, path).read, header, hi) for lo, hi in spans]
    if jobs:
        from . import _parts  # imported here: most files are read in one part
    with _parts.forked(jobs) if jobs else contextlib.nullcontext(()) as others:
        reader.read(header, ends[0])
        for (lo, hi), other in zip(spans, others):
            if other is not None and reader.at == lo:
                remap = np.array([reader.labels.setdefault(label, len(reader.labels)) for label in other.labels], dtype=np.uint32)
                reader.blocks += [(remap.take(codes, out=codes), values) for codes, values in other.blocks]  # remapped in place
                reader.line, reader.at = reader.line + other.line, other.at
            if reader.at < hi:
                reader.read(header, hi)
    return list(reader.labels), *(np.concatenate(column) for column in zip(*reader.blocks))


def _break_end(data: bytes | bytearray, start: int) -> int:
    """Just past the first line feed, or carriage return that no line feed follows, in ``data`` from ``start``; else 0."""
    lf = data.find(b"\n", start)
    # A carriage return just before a line feed is a CRLF's, and one that ends ``data`` may be.
    cr = data.find(b"\r", start, max(start, len(data) - 1 if lf < 0 else lf - 1))
    return cr + 1 if cr >= 0 else lf + 1


def _line_end(fd: int, offset: int, stop: int) -> int:
    """The offset just past the first line break at or after ``offset``, or ``stop`` if none comes before it."""
    while offset < stop:
        length = min(1 << 12, stop - offset)
        window = os.pread(fd, length + 1, offset)  # and the byte after, which tells whether a carriage return ends a line
        if not window:
            break
        end = _break_end(window, 0)
        if 0 < end <= length:
            return offset + end
        offset += length
    return stop


class _Reader:
    """A dataset input read from byte ``at`` in blocks of whole lines, and the rows parsed from them.

    A block is ``_BLOCK_BYTES`` and then up to the next line break, or up to
    the end of the input.  A regular file of ``size`` bytes is read with
    ``os.pread``, and a block that starts before ``hi`` (the end of a part)
    ends there at the latest; a pipe is read on with ``os.read``.  ``at``
    is where the last block read ends and ``line`` the last physical line
    read; ``labels`` and ``blocks`` hold the rows parsed.
    """

    def __init__(self, fd: int, at: int, hi: float, size: int | None, path: str):
        self.fd, self.at, self.hi, self.size, self.path, self.line = fd, at, hi, size, path, 0
        self.buffer, self.stream = bytearray(), io.StringIO()  # a pipe's bytes past the last block; a block's lines
        self.codes: dict[str, int] = {}  # see ``_code_labels``
        self.labels: dict[str, int] = {}
        self.blocks = [(np.empty(0, np.uint32), np.empty(0))]

    def block(self) -> str:
        """The rest of the block that ``lines`` stopped in, else the next block; "" at the end of the input.

        A block that is not UTF-8 ends at the last line break before its first
        bad byte: the lines before that byte are parsed before UnicodeDecodeError
        is raised.
        """
        rest, self.stream = self.stream.read(), io.StringIO()
        if rest:
            return rest
        length = _BLOCK_BYTES if self.at else 1  # the input's first block is its first line
        if self.size is None:
            searched = length - 1
            while not (end := _break_end(self.buffer, searched)) and (chunk := os.read(self.fd, 1 << 16)):
                searched = max(searched, len(self.buffer) - 1)  # so a long line is scanned once
                self.buffer += chunk
            block = self.buffer[: end or len(self.buffer)]
        else:
            limit = self.hi if self.at < self.hi else self.size
            end = _line_end(self.fd, max(self.at, min(self.at + length, limit) - 1), self.size)
            block = os.pread(self.fd, end - self.at, self.at)
        try:
            text = block.decode()
        except UnicodeDecodeError as exc:
            block = block[: max(block.rfind(b"\n", 0, exc.start), block.rfind(b"\r", 0, exc.start)) + 1]
            if not block:
                raise
            text = block.decode()
        self.at += len(block)
        del self.buffer[: len(block)]
        return text

    def lines(self, text: str) -> Iterator[str]:
        """The lines of ``text``, then of the next blocks while the csv reader's last row is open (its loop clears ``row_open``)."""
        self.row_open = False
        while text:
            self.stream = io.StringIO(text, newline="")
            for line in self.stream:
                self.row_open = True
                self.line += 1
                yield line
            text = self.block() if self.row_open else ""  # at the end of the input, an open row ends as in a file

    def read(self, header: list[str], hi: float) -> _Reader:
        """Parse blocks up to one that ends at ``hi`` or later: a plain one in bulk, any other alone by ``_read_rows``."""
        self.hi = hi
        # A repeated column name means its last occurrence, as in csv.DictReader.
        group_at, value_at = (len(header) - 1 - header[::-1].index(name) for name in ("group", "value"))
        while text := self.block():
            parsed = _parse_plain_block(self, text, len(header), group_at, value_at)
            self.blocks.append(_read_rows(self, text, group_at, value_at) if parsed is None else parsed)
            del text  # so that this block and the next are never held at once
            if self.at >= hi:
                break
        return self


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


def _parse_plain_block(source: _Reader, text: str, width: int, group_at: int, value_at: int) -> tuple[np.ndarray, np.ndarray] | None:
    """A block of plain CSV lines as group codes (see ``_code_labels``) and values, or None if it is not plain."""
    if "\r" in text:  # a scan for a character is much faster than a replace that finds nothing
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    text = text.removesuffix("\n")
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
    block_codes = _code_labels(cells[group_at::width], source.codes, source.labels)
    if block_codes is None:
        return None
    source.line += values.size  # a plain block holds one line per row
    return block_codes, values


def _read_rows(source: _Reader, text: str, group_at: int, value_at: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``text`` (see ``_Reader.lines``) parsed one at a time, as codes and values; errors cite the physical line."""
    labels: list[str] = []
    values: list[float] = []
    try:
        for row in csv.reader(source.lines(text)):
            source.row_open = False
            if not row:
                continue  # blank line
            label = row[group_at].strip() if group_at < len(row) else ""
            raw = row[value_at].strip() if value_at < len(row) else ""
            if not label:
                raise ValidationError(f"{source.path}:{source.line}: empty group label")
            try:
                value = float(raw)
            except ValueError:
                raise ValidationError(f"{source.path}:{source.line}: bad value {raw!r}") from None
            if not math.isfinite(value):
                raise ValidationError(f"{source.path}:{source.line}: non-finite value {raw!r}")
            labels.append(label)
            values.append(value)
    except csv.Error as exc:
        raise ValidationError(f"{source.path}:{source.line}: {exc}") from None
    return _code_labels(labels, source.codes, source.labels), np.array(values, dtype=float)


def _parse_group_order(text: str | None) -> list[str] | None:
    if text is None:
        return None
    order = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not order:
        raise ValidationError("--group-order lists no labels")
    return order


# ---------------------------------------------------------------------------
# report documents


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
    kind = result.center
    doc: dict[str, Any] = {
        "method": result.method,
        "statistic": float(result.statistic),
        "df1": float(result.df1),
        "df2": None if result.df2 is None else float(result.df2),
        "p_value": float(result.p_value),
        "center": None if kind is None else kind.name,
        "trim_proportion": None if kind is None else kind.trim_proportion,
        "correction": result.correction,
    }
    if result.details:
        doc["details"] = {key: float(value) for key, value in result.details.items()}
    return doc


def _finish(doc: dict[str, Any], caught: list[warnings.WarningMessage], fmt: str) -> int:
    doc["warnings"] = [str(item.message) for item in caught]
    return _print_out(json.dumps(doc, indent=2) if fmt == "json" else _render_text(doc), "the report")


def _print_out(text: str, what: str) -> int:
    """Print ``text`` to stdout and flush it: 0, or 2 after one error line if stdout cannot take it (a closed pipe, a full disk)."""
    try:
        _printed(text, sys.stdout)
    except OSError as exc:
        _print_err(f"error: cannot write {what}: {exc}")
        return 2
    return 0


def _print_err(line: str) -> None:
    """Print one line to stderr, or drop it if stderr cannot take it: no exit code depends on stderr."""
    with contextlib.suppress(OSError):
        _printed(line, sys.stderr)


def _printed(text: str, stream, end: str = "\n") -> None:
    """Print ``text`` to ``stream`` and flush it, or point the stream's descriptor at the null device and raise."""
    try:
        print(text, file=stream, end=end)
        stream.flush()
    except OSError:  # then what is still buffered, flushed at close or exit, goes nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        raise


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


# The label head that a --method stands for, with the center it fixes; any other method is its own head.
_METHODS = {"bfl": "levene:median", "trimmed": "levene:trimmed", "classic": "anova"}


def _test_label(args: argparse.Namespace) -> str:
    """The label the flags spell: the method's head, then its center and option from the flags ``args.slots`` names.

    A flag for a slot that the method lacks or fixes is refused here; every other rule is
    ``CenterKind``'s or ``sim._compile``'s.
    """
    head, _, fixed = _METHODS.get(args.method, args.method).partition(":")
    center, option = (getattr(args, dest) for dest in args.slots)
    if head not in _OPTION_DEFAULTS:
        for dest in (*args.slots, "trim_proportion"):
            if getattr(args, dest) is not None:
                raise ValidationError(f"--{dest.replace('_', '-')} does not apply to --method {args.method}")
        return head
    if fixed and center not in (None, fixed):
        raise ValidationError(f"--method {args.method} fixes the center to {fixed}; use --method levene to vary it")
    center = CenterKind(fixed or center or _DEFAULT_CENTER, args.trim_proportion)
    return ":".join([head, str(center)] + ([] if option is None else [str(option)]))


def _parse_scores(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValidationError(f"bad --scores {text!r}; expected comma-separated numbers") from None


def _fields(sample: GroupedSample, test: _Compiled, scores: list[float] | None) -> dict[str, Any]:
    """The report's fields for the compiled ``test`` run on ``sample``."""
    if test.family == "trend":
        result = trend_test(sample, scores, test.center)
        return {
            "method": "trend",
            "beta_hat": float(result.beta_hat),
            "std_error": float(result.std_error),
            "z_statistic": float(result.z_statistic),
            "side": test.option,
            "p_value": float(result.p_value(test.option)),
            "p_increasing": float(result.p_increasing),
            "p_decreasing": float(result.p_decreasing),
            "p_two_sided": float(result.p_two_sided),
            "center": result.center.name,
            "trim_proportion": result.center.trim_proportion,
            "scores": [float(w) for w in result.scores],
        }
    if test.family == "adaptive":
        outcome = adaptive_anova(sample, test.option)
        return {
            "method": "adaptive",
            "branch": outcome.chosen_branch,
            "statistic": float(outcome.final.statistic),
            "df1": float(outcome.final.df1),
            "df2": float(outcome.final.df2),
            "p_value": float(outcome.final.p_value),
            "preliminary_level": float(test.option.preliminary_level),
            "preliminary": _test_result_fields(outcome.preliminary),
            "final": _test_result_fields(outcome.final),
        }
    if test.family == "levene":
        return _test_result_fields(levene_test(sample, test.center, test.option))
    statistic = {"anova": anova_f, "welch": welch_anova, "bartlett": bartlett_m, "box-anderson": box_anderson_b3}
    return _test_result_fields(statistic[test.family](sample))


def _cmd_dataset(args: argparse.Namespace) -> int:
    """``test``, ``trend`` and ``anova``: the flags compiled to one test, run on the dataset, reported under its label.

    Every flag is checked before the file is read; warnings, such as a preliminary level's, go into the report.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        test = _compile(_test_label(args))
        scores = _parse_scores(getattr(args, "scores", None))
        sample = _read_dataset(args.input, _parse_group_order(getattr(args, "group_order", None)))
        doc = {"test": test.label, **_fields(sample, test, scores)}
    spread = test.family in ("levene", "trend")  # else the rows hold the deviations from the group means
    doc["groups"] = _group_rows(sample, test.center if spread else MEAN, test.option if test.family == "levene" else "none")
    return _finish(doc, caught, args.format)


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
    except UnicodeDecodeError as exc:
        raise ValidationError(f"scenario file {path!r} is not UTF-8 text ({exc.reason})") from None
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
                    nominal_level=_converted(float, block.get("nominal_level", "0.05"), "nominal_level"),
                    replications=_converted(int, block.get("replications", default_reps), "replications"),
                    master_seed=_converted(int, block.get("master_seed", derive_seed(grid_seed, index)), "master_seed"),
                )
            )
        except ValueError as exc:
            message = str(exc)  # Scenario's own messages name the scenario already
            prefix = "" if message.startswith(f"scenario {name!r}") else f"scenario {name!r}: "
            raise ValidationError(f"{path}: {prefix}{message}") from None
    return tuple(scenarios)


def _format_ratio(value: float) -> str:
    """``format(value, "g")`` where that reads back as ``value``, else ``repr(value)``."""
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def write_report_csv(report: SimulationReport, handle: io.TextIOWrapper, grid_seed: int) -> None:
    """Write one CSV row per (scenario, test) cell in place of what ``handle``'s file holds; numbers keep full precision."""
    rows = io.StringIO()
    writer = csv.writer(rows, lineterminator="\n")
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
    try:
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):  # a pipe or a device has nothing to truncate
            handle.truncate(0)
        _printed(rows.getvalue(), handle, end="")
    except OSError as exc:
        raise ValidationError(f"cannot write report {handle.name!r}: {exc}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    grid_seed = secrets.randbits(63) if args.seed is None else args.seed
    if not 0 <= grid_seed < 2**64:
        raise ValidationError(f"--seed must lie in [0, 2**64), got {grid_seed!r}")
    with warnings.catch_warnings(record=True) as caught:  # such as a preliminary level's, printed once each
        warnings.simplefilter("always")
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
    for message in dict.fromkeys(str(item.message) for item in caught):
        _print_err(f"warning: {message}")
    try:  # before any replicate is drawn, and to append: a file keeps its bytes until the report replaces them
        handle = open(args.out, "a", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write report {args.out!r}: {exc}") from None
    with handle:
        report = run_grid(scenarios, workers=args.workers)
        write_report_csv(report, handle, grid_seed)
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

    def dataset_command(name: str, help: str, slots: tuple[str, str], **defaults: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--input", required=True, help="CSV dataset with 'group' and 'value' columns")
        p.add_argument("--format", choices=("json", "text"), default="json", help="report format")
        p.add_argument("--trim-proportion", type=float, default=None, help="tail fraction for trimmed centers (default 0.25)")
        p.set_defaults(handler=_cmd_dataset, slots=slots, **defaults)
        return p

    p_test = dataset_command("test", "test equality of spread across groups", ("center", "correction"))
    p_test.add_argument(
        "--method",
        choices=("levene", "bfl", "trimmed", "bartlett", "box-anderson"),
        default="levene",
        help="bfl = levene with median centers; trimmed = levene with trimmed-mean centers",
    )
    p_test.add_argument("--center", choices=CENTERS, default=None)
    p_test.add_argument("--correction", choices=CORRECTIONS, default=None)

    p_trend = dataset_command("trend", "test for a monotone trend in spread", ("center", "side"), method="trend")
    p_trend.add_argument("--scores", default=None, help="comma-separated group scores (default 1..k)")
    p_trend.add_argument("--center", choices=CENTERS, default=None)
    p_trend.add_argument("--side", choices=SIDES, default="two-sided")
    p_trend.add_argument("--group-order", default=None, help="comma-separated labels fixing the group order")

    p_anova = dataset_command("anova", "test equality of means", ("prelim_center", "prelim_level"))
    p_anova.add_argument("--method", choices=("classic", "welch", "adaptive"), default="adaptive")
    p_anova.add_argument("--prelim-level", type=float, default=None, help="level of the preliminary spread test")
    p_anova.add_argument("--prelim-center", choices=CENTERS, default=None)

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
        _print_err(f"error: degenerate data: {exc}")
        return 3
    except ValidationError as exc:
        _print_err(f"error: {exc}")
        return 2
    except ArithmeticError as exc:  # a tail probability that does not converge
        _print_err(f"error: {exc}")
        return 3
    except MemoryError as exc:  # numpy cannot allocate an array
        _print_err("error: out of memory" + (f": {exc}" if str(exc) else ""))
        return 2


if __name__ == "__main__":
    sys.exit(main())
