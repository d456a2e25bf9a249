"""File formats: sensor-data CSV ingestion, precipitation/event/detection CSVs,
JSON documents.

Every input file crosses one boundary here: `_read`, the one row boundary
of every CSV reader, reads each block of `_blocks` column by column, and
`json_number`/`json_fields`/`json_list` check each value of a JSON document.
`read_series` is the one read of a sensor CSV, and picks a command's series.
`_blocks` reads a CSV's text, from a file or a pipe, about 96K characters at
a time, and splits a chunk whose lines hold no `"` and have the header's
width, checked at once with numpy, with `str.split`; the csv module reads
any other chunk's rows, up to the first row that ends at or past its end.
The first line holding a byte that does not decode is a data error. A number
cell reads to the double Python's `float` reads: a column of JSON numbers by
one orjson call (`_floats`), any other a cell at a time by `float`.

A timestamp is a finite number of epoch seconds or a `_GRAMMAR` stamp, read
alike on every Python: a `YYYY-MM-DD` date, optionally `T` or a space and
`hh[:mm[:ss[.fff|.ffffff]]]`, after a time optionally `Z` or `±hh:mm[:ss[.ffffff]]`
(UTC when no zone is given), with whitespace around it ignored. Written files
always use epoch seconds so that byte-identical reruns are possible.
"""

from __future__ import annotations

import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field
from functools import partial
from io import StringIO
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .errors import ConfigError, DataError
from .series import EventWindow, Modality, PrecipRecord, Series, index_array

__all__ = [
    "IngestReport",
    "ingest_csv",
    "read_series",
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


def _open_text(path: Path, error: type[Exception] = DataError, errors: str | None = None):
    try:
        return path.open(newline="", errors=errors)
    except (OSError, ValueError) as exc:  # a ValueError: a NUL in the path
        raise error(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from None


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


# Rows the writer formats per block: enough to amortise the bulk
# conversions, few enough that memory grows with the arrays and not with the
# file text.
_BLOCK = 4096

# Characters of text a CSV reader holds: a chunk `_blocks` reads, split by
# `str.split` or by the csv module. Enough that the per-chunk work is
# small next to the per-line work, and with a chunk's UTF-8 bytes under
# glibc's 128 KiB mmap threshold, so that its buffers reuse heap memory
# instead of mapping and unmapping pages (chosen by measurement, CHANGES.md).
# What a reader holds between chunks is a few large arrays per series
# (`_MERGE`), not one small pair per chunk left among the chunks' freed
# buffers, where glibc cannot return the heap. A change to the chunk size
# changes both, so it must re-check peak RSS on a deployment-size file,
# which no test or workload reaches.
_CHUNK = 96 * 1024


def _data_line(line: str) -> bool:
    """False for the `#` comment lines and blank lines every CSV reader skips."""
    return not (line.startswith("#") or line.isspace())


def _decoded(text: str) -> bool:
    """False when `text`, read with `errors="surrogateescape"`, holds a byte
    that did not decode: a lone surrogate, which `str.encode` refuses."""
    try:
        return text.isascii() or bool(text.encode())
    except UnicodeEncodeError:
        return False


def _split_chunk(text: str, ncols: int) -> list[str] | None:
    """The cells of `text`, whole data lines holding no `"` or NUL, split
    with `str.split`, `ncols` a line; or None when a line (a blank one too)
    has not exactly `ncols - 1` commas or is longer than
    `csv.field_size_limit()`. `\\r\\n` and `\\r` end a line as `\\n` does.

    One numpy pass over the UTF-8 bytes checks every line: there the bytes of
    `\\n` and `,` stand for nothing else, and a line has at least as many
    bytes as characters.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    b = np.frombuffer(text.encode(), np.uint8)
    seps = np.flatnonzero((b == 44) | (b == 10))
    if seps.size % ncols:
        return None
    kinds = b[seps].reshape(-1, ncols)  # a line's commas, then its line end
    ends = seps[ncols - 1::ncols]
    if (kinds[:, :-1] != 44).any() or (kinds[:, -1] != 10).any() \
            or np.diff(ends, prepend=-1).max() > csv.field_size_limit():
        return None
    return text.replace("\n", ",").split(",")


def _chunk_block(text: str, lineno: int, ncols: int, pos: list[int]) -> tuple | None:
    """((line numbers, cells of the columns at `pos`) of the data rows of
    `text`, whole lines of the file after line `lineno`, the number of its
    last line), split by `_split_chunk`: at once, or when `text` holds a `#`
    or `_split_chunk` refuses it, once its `#` comment lines and blank lines
    are dropped. None at once when `text` holds a `"`, a NUL (which Python
    3.10's csv refuses) or bytes that did not decode, and when `_split_chunk`
    refuses its data lines."""
    if '"' in text or "\x00" in text or not _decoded(text):
        return None
    cells = None if "#" in text else _split_chunk(text, ncols)
    if cells is not None:
        linenos: Sequence[int] = range(lineno + 1, lineno + 1 + len(cells) // ncols)
        last = lineno + len(linenos)
    else:
        lines = list(StringIO(text, newline=""))  # split as the file's line reader splits them
        kept = list(map(_data_line, lines))
        linenos = list(compress(range(lineno + 1, lineno + 1 + len(lines)), kept))
        cells = _split_chunk("".join(compress(lines, kept)), ncols) if linenos else []
        if cells is None:
            return None
        last = lineno + len(lines)
    return (linenos, [cells[i:-1:ncols] for i in pos]), last  # "" after the last line end


def _blocks(path: Path, columns: Sequence[str]) -> Iterator[tuple[Sequence[int], list[list[str]]]]:
    """(line numbers, one list of cells per column of `columns`) for the
    data rows of each chunk of text of a CSV, from a file or a pipe alike.

    `#` comment lines and blank lines are skipped but counted, so the line
    numbers are the file's own. The first other line is the header. The
    text after it is read `_CHUNK` characters at a time and cut after its
    last line end; the part line after the cut carries over to the next
    read. Each chunk is decided on its own: `_chunk_block` splits it with
    `str.split`, or, when it refuses, the csv module reads the chunk's rows
    up to the first row that ends at or past the cut, reading past it only
    to finish that row (the part line, completed by one `readline`, then the
    file); what it leaves unread starts the next chunk. Cells missing from a
    short row read as "". A line the csv module cannot read, or the first
    line holding bytes that do not decode, raise DataError only after the
    rows before them are yielded, so a caller still reports the first bad
    row first.
    """
    lineno = 0  # the line last read

    def kept(numbered):
        nonlocal lineno
        for lineno, line in numbered:
            if not _decoded(line):
                raise DataError(f"{path}:{lineno}: not text in the expected encoding")
            if _data_line(line):
                yield line

    failure = None
    rows: list[list[str]] = []
    linenos: list[int] = []
    with _open_text(path, errors="surrogateescape") as fh:  # so that a read never raises
        try:
            header = next(csv.reader(kept(enumerate(fh, 1))), [])
            at = {name: i for i, name in enumerate(header)}
            for col in columns:
                if col not in at:
                    raise DataError(f"{path}: missing column {col!r}")
            pos = [at[col] for col in columns]
            width = max(pos) + 1
            text, seen, more = "", 0, True  # the text not yet split, with no line end before `seen`
            while more:
                more = fh.read(_CHUNK)
                text += more  # not cut between a last "\r" and a "\n" to come
                cut = max(text.rfind("\n", seen), text.rfind("\r", seen, -1)) + 1 if more else len(text)
                if not cut:  # no whole line yet: search only what is added
                    seen = max(len(text) - 1, 0)
                    continue
                chunk = _chunk_block(text[:cut], lineno, len(header), pos)
                if chunk is not None:
                    block, lineno = chunk
                    text = text[cut:]
                else:  # split again: after a last "\r" the completed part line can be two lines
                    lines = StringIO(text[:cut], newline="")
                    part = StringIO(text[cut:] + fh.readline(), newline="")
                    for cells in csv.reader(kept(enumerate(chain(lines, part, fh), lineno + 1))):
                        if len(cells) < width:
                            cells += [""] * (width - len(cells))
                        rows.append(cells)
                        linenos.append(lineno)
                        if lines.tell() == cut:  # the row that ends the chunk
                            break
                    block = linenos, [[row[i] for row in rows] for i in pos]
                    rows, linenos, text = [], [], part.read()  # not held while the block is used
                seen = 0
                if block[0]:
                    yield block
        except csv.Error as exc:
            failure = f"{path}:{lineno}: malformed row ({exc})"
        except DataError as exc:
            failure = str(exc)
        if rows:
            yield linenos, [[row[i] for row in rows] for i in pos]
    if failure:
        raise DataError(failure)


class _RowError(DataError):
    """A cell rule's refusal naming the row's fault, cited after `path:line: `."""


def _read(path: Path, columns: Sequence[str], read: Callable) -> Iterator:
    """`read(*cells)` of each `_blocks` block of a CSV, a list of cells per
    column. A block `read` refuses (DataError, ValueError, OverflowError) is
    read again a row at a time, so each cell rule is written once: the first
    row refused raises `path:line: malformed row`, or its `_RowError`'s text."""
    for linenos, cells in _blocks(path, columns):
        try:
            block = read(*cells)
        except (DataError, ValueError, OverflowError):
            for lineno, *row in zip(linenos, *cells):
                try:
                    read(*([cell] for cell in row))
                except _RowError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                except (DataError, ValueError, OverflowError):
                    raise DataError(f"{path}:{lineno}: malformed row") from None
            raise
        yield block


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


# Positions of the digits in `YYYY-MM-DD hh:mm:ss`.
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _iso_seconds(cells: list[str]) -> np.ndarray:
    """Epoch seconds of each cell spelled exactly `YYYY-MM-DDThh:mm:ss`, with
    `T` or a space, and nothing, `Z` or `+00:00` after it: the one calendar
    code, which `_stamps` feeds every other grammar stamp. NaN for every other
    cell, one out of range too, and for all of them when one is not ASCII.
    """
    n = len(cells)
    out = np.full(n, np.nan)
    if not "".join(cells).isascii():
        return out
    size = np.fromiter(map(len, cells), np.int64, n)
    b = np.array(cells, "S25").view(np.uint8).reshape(n, 25)  # longer cells cut, refused by size
    digits = b[:, _ISO_DIGITS] - np.uint8(48)  # wraps past 9 for anything not a digit
    ok = ((size == 19) | ((size == 20) & (b[:, 19] == ord("Z")))
          | ((size == 25) & (b[:, 19:25] == np.frombuffer(b"+00:00", np.uint8)).all(1)))
    ok &= (digits < 10).all(1) & ((b[:, 10] == ord("T")) | (b[:, 10] == ord(" ")))
    ok &= (b[:, [4, 7, 13, 16]] == np.frombuffer(b"--::", np.uint8)).all(1)
    pairs = digits[:, 0::2].astype(np.int64) * 10 + digits[:, 1::2]  # the two-digit numbers
    century, year, month, day, hour, minute, second = pairs.T
    year = year + 100 * century
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= day <= _MONTH_DAYS[np.where(ok, month, 0)] + (leap & (month == 2))
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    # Days since 1970-01-01 of the proleptic Gregorian date, counted in
    # 400-year eras of years that start on March 1st.
    y = year - (month <= 2)
    era, yoe = np.divmod(y, 400)
    doy = (153 * (month + np.where(month > 2, -3, 9)) + 2) // 5 + day - 1
    days = era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468
    out[ok] = (days * 86400 + hour * 3600 + minute * 60 + second)[ok]
    return out


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


# The bytes a column `_floats` hands to orjson may hold: no letter but the
# exponent's and those of `nan`, which is read as `null`, so that no `true`,
# `null`, `NaN` or bracket in a cell can parse.
_NUMBER_BYTES = b"0123456789+-.eEna, \t"


def _floats(cells: list[str], empty: bool = False) -> np.ndarray | None:
    """`cells` read by Python's `float`, an empty cell as NaN when `empty`, or
    None when one of them is not a number.

    A column whose bytes are all `_NUMBER_BYTES` (the first cell's checked
    first, so that a column of ISO stamps costs one cell) is parsed as one
    JSON array by `orjson.loads`, each `nan` and, when `empty`, each empty
    cell as `null`, which reads the NaN `float("nan")` gives. It is kept when
    the array has one entry per cell, so no cell held a comma. A JSON number
    reads to the double `float` reads, but JSON's `-0` is the integer 0, so
    every zero of a column that holds a `-` is read again by `float`.
    Integers alone (no point, no exponent) are cast through int64, exactly
    and at half the cost. Any other column is read by `float`, a cell at a
    time.
    """
    n = len(cells)
    if not "".join(cells[:1]).encode().translate(None, _NUMBER_BYTES):
        text = ",".join(cells)
        if not text.encode().translate(None, _NUMBER_BYTES):
            doc = ",".join([c or "null" for c in cells]) if empty and "" in cells else text
            if "n" in text:  # one byte, found at memchr's speed
                doc = doc.replace("nan", "null")
            try:
                parsed = orjson.loads(f"[{doc}]")
            except orjson.JSONDecodeError:
                parsed = ()
            if len(parsed) == n:
                v = None
                if "." not in text and "e" not in text and "E" not in text:
                    try:  # past int64 orjson gives a larger int or, past 2**64, a float
                        v = np.fromiter(parsed, np.int64, n).astype(np.float64)
                    except (OverflowError, TypeError):  # TypeError: a null
                        pass
                if v is None:
                    v = np.fromiter(parsed, np.float64, n)
                if "-" in text and (zeros := np.flatnonzero(v == 0).tolist()):
                    v[zeros] = [float(cells[i]) for i in zeros]
                return v
    try:
        return np.fromiter(map(float, [c or "nan" for c in cells] if empty and "" in cells
                               else cells), np.float64, n)
    except ValueError:
        return None


_GRAMMAR = re.compile(  # the stamp grammar of the module docstring
    r"\s*([0-9]{4}-[0-9]{2}-[0-9]{2})(?:[T ]([0-9]{2})(?::([0-9]{2})(?::([0-9]{2})"
    r"(?:\.([0-9]{3}(?:[0-9]{3})?))?)?)?(?:Z|([+-])([01][0-9]|2[0-3]):([0-5][0-9])"
    r"(?::([0-5][0-9])(?:\.([0-9]{6}))?)?)?)?\s*")


def _stamps(cells: list[str]) -> np.ndarray:
    """Epoch seconds of a column of stamps: `_floats`, else each distinct cell
    once, by `_iso_seconds` or, where it declines, as a number or a `_GRAMMAR`
    stamp: `YYYY-MM-DDThh:mm:ss`, read by one more `_iso_seconds` call, plus
    integer microseconds (fraction less offset), divided as `datetime` does:
    `(whole * 10**6 + micros) / 10**6`. A bad stamp raises DataError or ValueError."""
    t = _floats(cells)
    if t is None:
        distinct = list(dict.fromkeys(cells))
        seconds = _iso_seconds(distinct)
        rewritten = []  # (index, strict spelling, microseconds) of each grammar stamp
        zones: dict[tuple, int] = {}  # microseconds to add, by the zone's fields
        for i in np.flatnonzero(np.isnan(seconds)).tolist():
            if not (match := _GRAMMAR.fullmatch(distinct[i])):
                seconds[i] = float(distinct[i])  # ValueError when no number either
                continue
            date, hh, mm, ss, fraction, *zone = match.groups("00")
            if (shift := zones.get(zone := tuple(zone))) is None:
                sign, oh, om, os_, ofraction = zone
                offset = (int(oh) * 3600 + int(om) * 60 + int(os_)) * 10**6 + int(ofraction)
                shift = zones[zone] = offset if sign == "-" else -offset
            rewritten.append((i, f"{date}T{hh}:{mm}:{ss}", int(fraction.ljust(6, "0")) + shift))
        if rewritten:  # a date or time out of range reads NaN, and int(NaN) raises ValueError
            at, strict, micros = zip(*rewritten)
            seconds[list(at)] = [(int(whole) * 10**6 + us) / 10**6
                                 for whole, us in zip(_iso_seconds(list(strict)).tolist(), micros)]
        seen = dict(zip(distinct, seconds.tolist()))
        t = np.fromiter(map(seen.__getitem__, cells), np.float64, len(cells))
    if not np.isfinite(t).all():
        raise DataError("non-finite timestamp")
    return t


def _series_block(stamps: list[str], nodes: list[str], modalities: list[str],
                  values: list[str], keep: Callable[[tuple[str, str]], bool] | None = None
                  ) -> dict[tuple[str, str], tuple[np.ndarray, np.ndarray | None]]:
    """{(node_id, modality): (times, values)} of a block's rows with a finite
    value, keys in order of first appearance (a key with no such row maps to
    empty arrays). A row's rules run in the order timestamp, modality,
    node_id, value. When `keep` refuses every key of the block and every
    value is finite and at most 1e15 in magnitude, every row is a present
    sample, its value is dropped, and each key's values are None."""
    t = _stamps(stamps)
    keys, g = _row_keys(nodes, modalities)
    v = _floats(values, empty=True)  # empty cells are missing samples
    if v is None:  # and so are blank ones
        v = _floats([cell.strip() for cell in values], empty=True)
    if v is None:
        raise _RowError(f"malformed row (bad value {values[0].strip()!r})")  # a row read alone
    if keep is not None and not any(map(keep, keys)) and (np.abs(v) <= 1e15).all():
        v, rows = None, np.arange(t.size)
    else:
        rows = np.flatnonzero(np.isfinite(v))
    parts = [rows]  # the writer's layout: one series after another
    if g is not None:
        rows = rows[np.argsort(g[rows], kind="stable")]  # grouped, in file order
        parts = np.split(rows, np.searchsorted(g[rows], np.arange(1, len(keys))))
    # A gather per key, not views of one array: a key's arrays go when it is repaired.
    return {key: (t[r], None if v is None else v[r]) for key, r in zip(keys, parts)}


def _row_keys(nodes: list[str], modalities: list[str]) -> tuple[list[tuple[str, str]],
                                                                 np.ndarray | None]:
    """The distinct (node_id, modality) keys of a block's cells, in order of
    first appearance, and each row's index into them (None when every row
    spells the same pair). An unknown modality raises ValueError, and only
    then an empty node_id `_RowError`.

    Each column's distinct spellings are read once and coded; a row's key
    is the pair of its two codes as one number.
    """
    n = len(nodes)
    if nodes.count(nodes[0]) == n and modalities.count(modalities[0]) == n:
        modality = _modality_key(modalities[0])
        return [(_node_key(nodes[0]), modality)], None
    mod_codes, mod_keys = _column_codes(modalities, _modality_key)
    node_codes, node_keys = _column_codes(nodes, _node_key)
    m = len(mod_keys)
    codes, firsts, g = np.unique(node_codes * m + mod_codes, return_index=True,
                                 return_inverse=True)
    order = np.argsort(firsts)
    keys = [(node_keys[c // m], mod_keys[c % m]) for c in codes[order].tolist()]
    return keys, np.argsort(order)[g]  # a code's rank in `order` is its key's index


def _node_key(cell: str) -> str:
    key = cell.strip()
    if not key:
        raise _RowError("malformed row (empty node_id)")
    return key


def _modality_key(cell: str) -> str:
    return Modality(cell.strip()).value


def _column_codes(cells: list[str], key: Callable[[str], str]) -> tuple[np.ndarray, list[str]]:
    """(each cell's code, the distinct `key(cell)` in order of first
    appearance), code i standing for the i-th key; `key` runs once per
    distinct spelling, so `" n1"` and `"n1"` share a code."""
    spellings = dict.fromkeys(cells)
    keys: dict[str, int] = {}
    for cell in spellings:
        spellings[cell] = keys.setdefault(key(cell), len(keys))
    return np.fromiter(map(spellings.__getitem__, cells), np.int64, len(cells)), list(keys)


def ingest_csv(path: str | Path, *,
               keep: Callable[[tuple[str, str]], bool] | None = None) -> IngestReport:
    """Read a sensor-data CSV into evenly spaced Series.

    Rows are grouped by (node_id, modality). Within a group, timestamps must
    be strictly increasing and sit on a uniform grid within 1% of the modal
    spacing. Rows whose value cell is empty or non-finite are treated as
    missing. Runs of up to 3 consecutive missing grid points are filled by
    linear interpolation (counted in the report); longer gaps split the
    series into separate pieces.

    With `keep`, the report holds only the series of the (node_id, modality)
    keys it accepts. Every row is still read and checked, and every key
    repaired into Series and counted in `filled` and `splits`, so the errors
    and counts are those of a full ingest. But a block of other keys' rows
    whose values are all finite and at most 1e15 in magnitude drops them, and
    zeros stand in for them in the repair: next to such a value, an
    interpolation overflows only when the other value is above ~6e307 in
    magnitude, where the dropped one is below half an ulp, so the repair
    raises exactly where it would on the values.
    """
    path = Path(path)
    # Each key's merged arrays and pending blocks, in order of first appearance.
    groups: dict[tuple[str, str], tuple[list, list]] = {}
    for block in _read(path, SERIES_COLUMNS, partial(_series_block, keep=keep)):
        for key, arrays in block.items():
            merged, pending = groups.setdefault(key, ([], []))
            pending.append(arrays)
            if len(pending) == _MERGE:
                merged.append(_joined(pending))
                pending.clear()
    if not groups:
        raise DataError(f"{path}: no data rows")

    report = IngestReport(series=[])
    for key in list(groups):  # each key's arrays are freed once joined
        t, v = _joined(chain(*groups.pop(key)))
        series = _repair_group(key, t, np.zeros(t.size) if v is None else v, report)
        if keep is None or keep(key):
            report.series.extend(series)
    return report


# Blocks of a key that ingest merges into one pair of arrays: a reader holds
# a few large arrays per key, not one small pair per chunk.
_MERGE = 64


def _joined(blocks: Iterable[tuple]) -> tuple[np.ndarray, np.ndarray | None]:
    """A key's (times, values) blocks, end to end: values None when every
    block's are, and zeros standing in for those of a block whose are None."""
    blocks = list(blocks)
    t = np.concatenate([bt for bt, _ in blocks])
    if all(bv is None for _, bv in blocks):
        return t, None
    return t, np.concatenate([np.zeros(bt.size) if bv is None else bv for bt, bv in blocks])


def read_series(path: str | Path, node: str | None, modality: Modality | None,
                neighbors: Iterable[str] | None = ()) -> tuple[Series, list[Series]]:
    """The one unbroken series for (`node`, `modality`) of the sensor CSV at
    `path`, and one of its modality for each node of `neighbors` (None: every
    other node of that modality, sorted). A `node` or `modality` left as None
    is inferred when the file (for the modality: the node's series) holds one.

    When `node` and `modality` are given, the ingest converts and keeps only
    the series returned: that modality's series of `node` and `neighbors`,
    or of every node when `neighbors` is None."""
    keep = None
    if node is not None and modality is not None:
        neighbors = None if neighbors is None else list(neighbors)
        nodes = None if neighbors is None else {node, *neighbors}
        keep = lambda key: key[1] == modality and (nodes is None or key[0] in nodes)
    # Looked up here by name: bench/spans.py meters it by rebinding it.
    report = ingest_csv(path, keep=keep)

    def select(node: str | None, modality: Modality | None) -> Series:
        if node is None:
            nodes = sorted({s.node_id for s in report.series})
            if len(nodes) != 1:
                raise ConfigError(f"{path} holds nodes {nodes}; pick one with --node")
            node = nodes[0]
        if modality is None:
            mods = sorted({s.modality for s in report.series if s.node_id == node})
            if not mods:
                raise DataError(f"{path}: no series for node {node!r}")
            if len(mods) > 1:
                raise ConfigError(f"{path} node {node!r} holds several modalities; "
                                  f"pick one with --modality")
            modality = mods[0]
        pieces = report.find(node, modality)
        if not pieces:
            raise DataError(f"{path}: no series for node {node!r} modality {modality.value!r}")
        if len(pieces) > 1:
            raise DataError(f"{path}: series for node {node!r} is split by long gaps")
        return pieces[0]

    target = select(node, modality)
    if neighbors is None:
        neighbors = sorted({s.node_id for s in report.series if s.modality == target.modality}
                           - {target.node_id})
    return target, [select(other, target.modality) for other in neighbors]


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
    def read(stamps, amounts):
        t = _stamps(stamps)
        if (mm := _floats(amounts)) is None:
            raise ValueError("an amount is not a number")
        return list(map(PrecipRecord, t.tolist(), mm.tolist()))

    return list(chain.from_iterable(_read(Path(path), ("timestamp", "amount_mm"), read)))


def read_events_csv(path: str | Path) -> list[EventWindow]:
    """Read event windows from a CSV with header ``start,end``."""
    def read(starts, ends):
        return list(map(EventWindow, _stamps(starts).tolist(), _stamps(ends).tolist()))

    return list(chain.from_iterable(_read(Path(path), ("start", "end"), read)))


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
    """A detection CSV as {flag_source: sorted index array}, sources in file order."""
    def read(indices, sources):
        # `int`, not a numpy parse: " 5" and "1_0" read, and past int64 is an OverflowError
        idx = np.fromiter(map(int, indices), np.int64, len(indices))
        codes, keys = _column_codes(sources, _flag_source)
        return {src: idx[codes == i] for i, src in enumerate(keys)}

    by_source: dict[str, list[np.ndarray]] = {}
    for block in _read(Path(path), ("index", "flag_source"), read):
        for src, idx in block.items():
            by_source.setdefault(src, []).append(idx)
    return {src: index_array(np.concatenate(parts)) for src, parts in by_source.items()}


def _flag_source(cell: str) -> str:
    if cell.strip() not in ("short", "noise", "llse"):
        raise _RowError(f"unknown flag_source {cell.strip()!r}")
    return cell.strip()


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
