"""File formats: sensor-data CSV ingestion, precipitation/event/detection CSVs,
JSON documents.

Every input file crosses one boundary here: `_blocks` reads each CSV in
blocks of rows, and `json_number`/`json_fields`/`json_list` check each value
of a JSON document. A block of lines without `"` whose rows all have the
header's width is split with `str.split`; from the first other block on,
the csv module reads the file row by row, with the same cells.

Timestamps are accepted as ISO-8601 (UTC assumed when no zone is given) or as
epoch seconds; written files always use epoch seconds so that byte-identical
reruns are possible.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from io import StringIO
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Callable, Generator, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .series import EventWindow, Modality, PrecipRecord, Series, index_array

__all__ = [
    "IngestReport",
    "ingest_csv",
    "write_series_csv",
    "write_csv",
    "read_precip_csv",
    "read_events_csv",
    "write_events_csv",
    "write_detection_csv",
    "read_detection_csv",
    "read_json",
    "write_text",
    "write_json",
    "write_outputs",
    "json_number",
    "json_fields",
    "json_list",
]

# Longest run of consecutive missing samples repaired by interpolation;
# longer gaps split the series instead.
MAX_INTERPOLATED_RUN = 3

# Relative tolerance on sample spacing.
SPACING_RTOL = 0.01

SERIES_COLUMNS = ("timestamp", "node_id", "modality", "value")


def _open_text(path: Path, error: type[Exception] = DataError):
    try:
        return path.open(newline="")
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None


def _open_out(path: str | Path):
    try:
        return Path(path).open("w", newline="")
    except OSError as exc:  # a directory at the path, no permission, ...
        raise ConfigError(f"{path}: cannot write ({exc.strerror or exc})") from None


def write_outputs(out: Path, files: Sequence[tuple]) -> list[Path]:
    """Write each `(name, write, *args)` of `files` into `out` as
    `write(path, *args)`, all or none, and return the paths.

    A directory at a target or at its temporary path is refused first. Each
    file is written to `.<name>.tmp` beside its target, and all are renamed
    into place once every one is written; any exception, KeyboardInterrupt
    too, removes every target's `.<name>.tmp`, also one a killed run left.
    """
    targets = [out / name for name, *_ in files]
    temps = [target.with_name(f".{target.name}.tmp") for target in targets]
    for target, path in zip(targets * 2, targets + temps):
        if path.is_dir():
            raise ConfigError(f"{target}: cannot write ({path.name} is a directory)")
    try:
        for target, temp, (_, write, *args) in zip(targets, temps, files):
            try:
                temp.touch()
            except OSError as exc:  # no permission, a read-only file system, ...
                raise ConfigError(f"{target}: cannot write ({exc.strerror or exc})") from None
            write(temp, *args)
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            temp.unlink(missing_ok=True)
        raise
    return targets


# Most data rows read or written per block: enough to amortise the bulk
# conversions, few enough that memory grows with the parsed arrays and not
# with the file text.
_BLOCK = 4096


def _data_line(line: str) -> bool:
    """False for the `#` comment lines and blank lines every CSV reader skips."""
    return not (line.startswith("#") or line.isspace())


def _raises(exc: Exception) -> Iterator:
    """An iterator that raises `exc` when it is read."""
    raise exc
    yield


def _split_block(lines: list[str], first: int, ncols: int,
                 pos: list[int]) -> tuple[Sequence[int], list[list[str]]] | None:
    """(line numbers, cells of the columns at `pos`) of the data lines in
    `lines`, the file's lines from line `first` on, split with `str.split`;
    or None when a line needs the csv module.

    A block without `"` holds no cell that spans lines, and a line of
    exactly `ncols - 1` commas, no NUL (which Python 3.10's csv refuses) and
    no more characters than `csv.field_size_limit()` reads as its commas
    split it.
    """
    text = "".join(lines)
    if '"' in text or "\x00" in text:
        return None
    linenos: Sequence[int] = range(first, first + len(lines))
    if "#" in text or any(map(str.isspace, lines)):
        kept = [i for i, line in enumerate(lines) if _data_line(line)]
        lines = [lines[i] for i in kept]
        linenos = [first + i for i in kept]
        text = "".join(lines)
    n = len(lines)
    if (list(map(str.count, lines, repeat(","))).count(ncols - 1) != n
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    cells = text.replace("\n", ",").split(",")
    return linenos, [cells[i:n * ncols:ncols] for i in pos]


def _split_blocks(fh, first: int, ncols: int, pos: list[int]) -> Generator:
    """Yield `_split_block` of each run of `_BLOCK` lines of `fh`, the file
    from line `first` on, up to the first run it refuses; return the
    numbered lines of the file from that run on, for the csv module.

    Bytes that do not decode end the file: the lines read before them are
    returned, followed by the decode error.
    """
    while True:
        block: list[str] = []
        try:
            block.extend(islice(fh, _BLOCK))  # keeps the lines read before a decode error
        except UnicodeDecodeError as exc:
            return chain(enumerate(block, first), _raises(exc))
        if not block:
            return ()
        split = _split_block(block, first, ncols, pos)
        if split is None:
            return chain(enumerate(block, first), enumerate(fh, first + len(block)))
        if split[0]:
            yield split
        first += len(block)


def _blocks(path: Path, columns: Sequence[str]) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """(line numbers, one list of cells per column of `columns`) for each run
    of at most `_BLOCK` data rows of a CSV.

    `#` comment lines and blank lines are skipped but counted, so the line
    numbers are the file's own. The first other line is the header. Runs of
    lines are split with `str.split` while they hold no `"` and each data
    line has the header's width (`_split_blocks`); from the first run that
    does not, the csv module reads the rest of the file row by row, with
    the same result. Cells missing from a short row read as "". A line the
    csv module cannot read, or bytes that do not decode, raise DataError
    only after the rows read before them have been yielded, so a caller
    still reports the first bad row first.
    """
    lineno = 0

    def kept(numbered):
        nonlocal lineno
        for lineno, line in numbered:
            if _data_line(line):
                yield line

    failure = None
    with _open_text(path) as fh:
        reader = csv.reader(kept(enumerate(fh, 1)))
        rows: list[list[str]] = []
        linenos: list[int] = []
        try:
            header = next(reader, [])
            at = {name: i for i, name in enumerate(header)}
            for col in columns:
                if col not in at:
                    raise DataError(f"{path}: missing column {col!r}")
            pos = [at[col] for col in columns]
            width = max(pos) + 1
            rest = yield from _split_blocks(fh, lineno + 1, len(header), pos)
            for cells in csv.reader(kept(rest)):
                if len(cells) < width:
                    cells += [""] * (width - len(cells))
                rows.append(cells)
                linenos.append(lineno)
                if len(rows) == _BLOCK:
                    block = linenos, [[row[i] for row in rows] for i in pos]
                    rows, linenos = [], []  # the rows are not held while the block is used
                    yield block
        except csv.Error as exc:
            failure = f"{path}:{lineno}: malformed row ({exc})"
        except UnicodeDecodeError as exc:  # decoded in chunks, so no line to cite
            failure = f"{path}: not text in the expected encoding ({exc})"
        if rows:
            yield linenos, [[row[i] for row in rows] for i in pos]
    if failure:
        raise DataError(failure)


def _records(path: Path, columns: Sequence[str], parse: Callable) -> Iterator:
    """(line number, `parse(*cells of columns)`) for each data row of a CSV;
    a row `parse` rejects is malformed."""
    for linenos, cells in _blocks(path, columns):
        for lineno, *row in zip(linenos, *cells):
            try:
                record = parse(*row)
            except (DataError, ValueError):
                raise DataError(f"{path}:{lineno}: malformed row") from None
            yield lineno, record


@dataclass
class IngestReport:
    """Result of ingesting a sensor-data CSV: repaired series plus repair counts."""

    series: list[Series]
    filled: dict[tuple[str, str], int] = field(default_factory=dict)
    splits: dict[tuple[str, str], int] = field(default_factory=dict)

    @property
    def total_filled(self) -> int:
        return sum(self.filled.values())

    def find(self, node_id: str, modality: Modality | str) -> list[Series]:
        m = Modality(modality)
        return [s for s in self.series if s.node_id == node_id and s.modality == m]


def parse_timestamp(text: str) -> float:
    """Epoch seconds from an ISO-8601 string or a finite numeric literal."""
    raw = text.strip()
    try:
        t = float(raw)
    except ValueError:
        try:
            dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
        except ValueError:
            raise DataError(f"malformed timestamp {text!r}") from None
        return (dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)).timestamp()
    if not math.isfinite(t):
        raise DataError(f"non-finite timestamp {text!r}")
    return t


def format_timestamp(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else repr(float(t))


def _nominal_interval(diffs: np.ndarray) -> float:
    """Modal spacing of the row diffs.

    Diffs are clustered with a 1% relative tolerance; the most populous
    cluster must hold a strict majority of all diffs, otherwise the spacing
    is declared irregular. Ties go to the smaller spacing.
    """
    spacings, counts = np.unique(diffs, return_counts=True)
    firsts = [0]  # index in `spacings` of each cluster's smallest member
    for i, d in enumerate(spacings.tolist()):
        first = spacings[firsts[-1]]
        if d - first > SPACING_RTOL * first:
            firsts.append(i)
    sizes = np.add.reduceat(counts, firsts)
    best = int(np.argmax(sizes))
    if sizes[best] * 2 <= diffs.size:
        raise DataError("irregular spacing: no dominant sample interval")
    members = slice(firsts[best], (firsts + [spacings.size])[best + 1])
    # The median of the cluster's diffs, read from its run lengths: the
    # middle diff, or for an even count the mean of the two middle ones.
    ends = np.cumsum(counts[members])
    n = int(ends[-1])
    lo, hi = spacings[members][np.searchsorted(ends, [(n - 1) // 2, n // 2], "right")].tolist()
    return lo if n % 2 else (lo + hi) / 2


@np.errstate(over="ignore", invalid="ignore")  # the checks below refuse what overflows
def _repair_group(key: tuple[str, str], t: np.ndarray, v: np.ndarray,
                  report: IngestReport) -> list[Series]:
    node_id, modality = key
    if t.size == 0:
        raise DataError(f"all-missing series for node {node_id!r} modality {modality!r}")
    if t.size == 1:
        return [Series(node_id, modality, float(t[0]), DEFAULT_SINGLETON_INTERVAL, v)]
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise DataError(f"timestamps not strictly increasing for node {node_id!r} "
                        f"modality {modality!r}")
    nominal = _nominal_interval(diffs)

    k = np.rint(diffs / nominal)  # grid steps spanned by each diff, NaN for inf / inf
    off_grid = ~(k >= 1) | (np.abs(diffs - k * nominal) > SPACING_RTOL * nominal)
    if off_grid.any():
        d = diffs[np.argmax(off_grid)]
        raise DataError(
            f"irregular spacing for node {node_id!r} modality {modality!r}: "
            f"gap of {d} s is not a whole multiple of {nominal} s")
    split = k - 1 > MAX_INTERPOLATED_RUN
    k[split] = 1  # the first sample of a new segment sits one step on, with nothing filled
    k = k.astype(np.int64)  # only now: a split's k can be inf or past int64
    pos = np.zeros(t.size, np.int64)  # each sample's grid position
    np.cumsum(k, out=pos[1:])
    values = np.empty(pos[-1] + 1)
    values[pos] = v
    for j in range(1, MAX_INTERPOLATED_RUN + 1):  # the j-th point of every longer gap
        i = np.flatnonzero(k > j)
        values[pos[i] + j] = v[i] + (v[i + 1] - v[i]) * j / k[i]

    filled, splits = values.size - v.size, int(np.count_nonzero(split))
    if filled:
        report.filled[key] = filled
    if splits:
        report.splits[key] = splits
    starts = [float(t[0]), *t[1:][split].tolist()]
    return [Series(node_id, modality, start, nominal, vals)
            for start, vals in zip(starts, np.split(values, pos[1:][split]))]


# Interval assigned to a degenerate one-row series, where spacing cannot
# be inferred.
DEFAULT_SINGLETON_INTERVAL = 900.0


def _floats(cells: list[str]) -> np.ndarray | None:
    """`cells` read by Python's `float`, or None when one of them is not a number."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:
        return None


def _series_block(path: Path, linenos: Sequence[int],
                  columns: list[list[str]]) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]:
    """{(node_id, modality): (times, values)} of a block's rows with a finite
    value, keys in order of first appearance (a key with no such row maps to
    empty arrays). A block with a bad row raises the error of the first one.
    """
    stamps, nodes, modalities, values = columns
    n = len(stamps)
    t = _floats(stamps)
    if t is None or not np.isfinite(t).all():  # ISO spellings: parse each distinct one once
        seen = {}
        for cell in dict.fromkeys(stamps):
            try:
                seen[cell] = parse_timestamp(cell)
            except DataError:
                _raise_first_bad_row(path, linenos, columns)
        t = np.fromiter(map(seen.__getitem__, stamps), np.float64, n)

    one_pair = nodes.count(nodes[0]) == n and modalities.count(modalities[0]) == n
    pairs = [(nodes[0], modalities[0])] if one_pair else dict.fromkeys(zip(nodes, modalities))
    keys: dict[tuple[str, str], int] = {}
    number = {}
    for pair in pairs:
        try:
            key = (pair[0].strip(), Modality(pair[1].strip()).value)
        except ValueError:
            key = ("", "")
        if not key[0]:
            _raise_first_bad_row(path, linenos, columns)
        number[pair] = keys.setdefault(key, len(keys))

    v = _floats(values)
    if v is None:  # empty cells are missing samples
        v = _floats([cell or "nan" for cell in values])
    if v is None:  # and so are blank ones
        v = _floats([cell.strip() or "nan" for cell in values])
    if v is None:
        _raise_first_bad_row(path, linenos, columns)
    keep = np.isfinite(v)
    if len(keys) == 1:  # the writer's layout: one series after another
        return {key: (t[keep], v[keep])}
    g = np.fromiter(map(number.__getitem__, zip(nodes, modalities)), np.int64, n)
    rows = np.flatnonzero(keep)[np.argsort(g[keep], kind="stable")]  # grouped, in file order
    cuts = np.searchsorted(g[rows], np.arange(1, len(keys)))
    # A gather per key, not views of one array: a key's arrays go when it is repaired.
    return {key: (t[r], v[r]) for key, r in zip(keys, np.split(rows, cuts))}


def _raise_first_bad_row(path: Path, linenos: Sequence[int], columns: list[list[str]]) -> NoReturn:
    """Raise the error of a block's first malformed row, checking one row at
    a time: timestamp and modality, then node_id, then value."""
    for lineno, stamp, node, modality, cell in zip(linenos, *columns):
        try:
            parse_timestamp(stamp)
            Modality(modality.strip())
        except (DataError, ValueError):
            raise DataError(f"{path}:{lineno}: malformed row") from None
        if not node.strip():
            raise DataError(f"{path}:{lineno}: malformed row (empty node_id)")
        try:
            float(cell.strip() or "nan")  # a blank cell is a missing sample
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: malformed row (bad value {cell.strip()!r})") from None
    raise AssertionError("a block flagged as bad holds no bad row")


def ingest_csv(path: str | Path) -> IngestReport:
    """Read a sensor-data CSV into evenly spaced Series.

    Rows are grouped by (node_id, modality). Within a group, timestamps must
    be strictly increasing and sit on a uniform grid within 1% of the modal
    spacing. Rows whose value cell is empty or non-finite are treated as
    missing. Runs of up to 3 consecutive missing grid points are filled by
    linear interpolation (counted in the report); longer gaps split the
    series into separate pieces.
    """
    path = Path(path)
    groups: dict[tuple[str, str], list] = {}  # each key's blocks, in order of first appearance
    for linenos, cells in _blocks(path, SERIES_COLUMNS):
        for key, block in _series_block(path, linenos, cells).items():
            groups.setdefault(key, []).append(block)
    if not groups:
        raise DataError(f"{path}: no data rows")

    report = IngestReport(series=[])
    for key in list(groups):  # each key's blocks are freed once it is repaired
        t, v = (np.concatenate(column) for column in zip(*groups.pop(key)))
        report.series.extend(_repair_group(key, t, v, report))
    return report


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable) -> None:
    """Write `header` and `rows` as CSV with newline line ends."""
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _csv_line(cells: Sequence[str]) -> str:
    """`cells` as one CSV line, quoted by the csv module's rules."""
    buf = StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def write_series_csv(path: str | Path, series: Iterable[Series]) -> None:
    """Write series to the sensor-data CSV format, one row per sample.

    Stamps are written `_BLOCK` rows at a time. When every time of a block is
    whole and inside ±2**63, the block's stamps are one int64 cast, whose
    `str` is what `format_timestamp` writes for a whole float (`-0.0`
    included). Any other block, such as one with a 0.5 s interval or a time
    at or past 2**63, calls `format_timestamp` per row.
    """
    with _open_out(path) as fh:
        fh.write(_csv_line(SERIES_COLUMNS))
        for s in series:
            middle = _csv_line(["", s.node_id, s.modality.value, ""])[:-1]
            for lo in range(0, len(s), _BLOCK):
                times = s.start_time + np.arange(lo, min(lo + _BLOCK, len(s))) * s.sample_interval
                if np.array_equal(times, np.trunc(times)) and np.abs(times).max() < 2.0**63:
                    stamps = times.astype(np.int64).tolist()
                else:
                    stamps = map(format_timestamp, times.tolist())
                fh.write("".join([f"{stamp}{middle}{val!r}\n" for stamp, val
                                  in zip(stamps, s.values[lo:lo + _BLOCK].tolist())]))


def read_precip_csv(path: str | Path) -> list[PrecipRecord]:
    """Read gauge records from a CSV with header ``timestamp,amount_mm``."""
    def parse(ts, mm):
        return PrecipRecord(parse_timestamp(ts), float(mm))

    return [rec for _, rec in _records(Path(path), ("timestamp", "amount_mm"), parse)]


def read_events_csv(path: str | Path) -> list[EventWindow]:
    """Read event windows from a CSV with header ``start,end``."""
    def parse(start, end):
        return EventWindow(parse_timestamp(start), parse_timestamp(end))

    return [ev for _, ev in _records(Path(path), ("start", "end"), parse)]


def write_events_csv(path: str | Path, events: Sequence[EventWindow]) -> None:
    write_csv(path, ("start", "end"),
              ([format_timestamp(ev.start), format_timestamp(ev.end)] for ev in events))


def write_detection_csv(path: str | Path, flags: Sequence[int] | np.ndarray, source: str) -> None:
    """Write one detector's flags as rows of ``index,flag_source``.

    `flags` holds the flagged sample indices (anything `index_array` takes)
    and `source` is short/noise/llse; rows are distinct and sorted by index.
    """
    write_csv(path, ("index", "flag_source"),
              zip(index_array(flags).tolist(), repeat(source)))


def read_detection_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a detection CSV back into {flag_source: sorted index array}."""
    def parse(index, src):
        return json_number(int(index), "index", int), src.strip()

    path = Path(path)
    by_source: dict[str, list[int]] = {}
    for lineno, (idx, src) in _records(path, ("index", "flag_source"), parse):
        if src not in ("short", "noise", "llse"):
            raise DataError(f"{path}:{lineno}: unknown flag_source {src!r}")
        by_source.setdefault(src, []).append(idx)
    return {src: index_array(idxs) for src, idxs in by_source.items()}


def read_json(path: str | Path, error: type[Exception] = DataError):
    """The JSON document at `path`; an unreadable or malformed file raises `error`."""
    with _open_text(Path(path), error) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None


def write_text(path: str | Path, text: str) -> None:
    """`text` and a final newline."""
    with _open_out(path) as fh:
        fh.write(text + "\n")


def write_json(path: str | Path, doc) -> None:
    """`doc` as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def json_number(raw, what: str, kind: type = float, error: type[Exception] = DataError):
    """`raw` converted with `kind` (int or float) when it is a JSON number: an
    int or a float but not a boolean, finite, and for kind=int an integer
    within int64. Anything else raises `error`."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise error(f"{what} must be a number, got {raw!r}")
    if kind is int and not (isinstance(raw, int) and -2**63 <= raw < 2**63):
        raise error(f"{what} must be an integer within int64, got {raw!r}")
    if not abs(raw) <= sys.float_info.max:  # NaN, an infinity or an int past the float range
        raise error(f"{what} must be finite, got {raw!r}")
    return kind(raw)


def json_fields(raw, what: str, keys: Iterable[str], required: Iterable[str] = (),
                error: type[Exception] = DataError) -> dict:
    """`raw` when it is a JSON object whose keys are among `keys` and include
    every one of `required`; anything else raises `error`."""
    if not isinstance(raw, dict):
        raise error(f"{what} must be an object, got {raw!r}")
    for problem, names in (("unknown", set(raw) - set(keys)), ("missing", set(required) - set(raw))):
        if names:
            raise error(f"{what}: {problem} keys {sorted(names)}")
    return raw


def json_list(raw, what: str, error: type[Exception] = DataError) -> list:
    """`raw` when it is a JSON array; anything else raises `error`."""
    if not isinstance(raw, list):
        raise error(f"{what} must be a list, got {raw!r}")
    return raw
