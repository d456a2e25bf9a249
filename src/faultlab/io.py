"""File formats: sensor-data CSV ingestion, precipitation/event/detection CSVs,
JSON documents.

Every input file crosses one boundary here: `_rows` reads each CSV, and
`json_number`/`json_fields`/`json_list` check each value of a JSON document.

Timestamps are accepted as ISO-8601 (UTC assumed when no zone is given) or as
epoch seconds; written files always use epoch seconds so that byte-identical
reruns are possible.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .series import EventWindow, Modality, PrecipRecord, Series

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
    "write_json",
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


def _rows(path: Path, columns: Sequence[str], parse: Callable = lambda *cells: cells) -> Iterator:
    """(line number, `parse(*cells of columns)`) for each data row of a CSV.

    `#` comment lines and blank lines are skipped but counted, so the line
    number is the file's own. The first other line is the header. Cells
    missing from a short row read as ""; a row `parse` rejects is malformed.
    """
    lineno = 0

    def lines(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, 1):
            if not (line.startswith("#") or line.isspace()):
                yield line

    with _open_text(path) as fh:
        try:
            reader = csv.reader(lines(fh))
            at = {name: i for i, name in enumerate(next(reader, []))}
            for col in columns:
                if col not in at:
                    raise DataError(f"{path}: missing column {col!r}")
            pos = [at[col] for col in columns]
            width, pick = max(pos) + 1, itemgetter(*pos)
            for cells in reader:
                if len(cells) < width:
                    cells += [""] * (width - len(cells))
                try:
                    row = parse(*pick(cells))
                except (DataError, ValueError):
                    raise DataError(f"{path}:{lineno}: malformed row") from None
                yield lineno, row
        except csv.Error as exc:
            raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None
        except UnicodeDecodeError as exc:  # decoded in chunks, so no line to cite
            raise DataError(f"{path}: not text in the expected encoding ({exc})") from None


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
    order = np.sort(diffs)
    clusters: list[list[float]] = [[order[0]]]
    for d in order[1:]:
        if d - clusters[-1][0] <= SPACING_RTOL * clusters[-1][0]:
            clusters[-1].append(d)
        else:
            clusters.append([d])
    best = max(clusters, key=len)
    if len(best) * 2 <= diffs.size:
        raise DataError("irregular spacing: no dominant sample interval")
    return float(np.median(best))


def _repair_group(
    key: tuple[str, str],
    times: list[float],
    values: list[float],
    report: IngestReport,
) -> list[Series]:
    node_id, modality = key
    t = np.array(times, dtype=np.float64)
    v = np.array(values, dtype=np.float64)
    if t.size == 0:
        raise DataError(f"all-missing series for node {node_id!r} modality {modality!r}")
    if t.size == 1:
        return [Series(node_id, modality, float(t[0]), DEFAULT_SINGLETON_INTERVAL, v)]
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise DataError(f"timestamps not strictly increasing for node {node_id!r} "
                        f"modality {modality!r}")
    nominal = _nominal_interval(diffs)

    segments: list[tuple[float, list[float]]] = [(float(t[0]), [float(v[0])])]
    filled = 0
    splits = 0
    for i, d in enumerate(diffs):
        k = int(round(d / nominal))
        if k < 1 or abs(d - k * nominal) > SPACING_RTOL * nominal:
            raise DataError(
                f"irregular spacing for node {node_id!r} modality {modality!r}: "
                f"gap of {d} s is not a whole multiple of {nominal} s")
        missing = k - 1
        if missing > MAX_INTERPOLATED_RUN:
            splits += 1
            segments.append((float(t[i + 1]), [float(v[i + 1])]))
            continue
        vals = segments[-1][1]
        for j in range(1, k):
            vals.append(float(v[i] + (v[i + 1] - v[i]) * j / k))
        filled += missing
        vals.append(float(v[i + 1]))

    if filled:
        report.filled[key] = filled
    if splits:
        report.splits[key] = splits
    return [Series(node_id, modality, start, nominal, np.array(vals))
            for start, vals in segments]


# Interval assigned to a degenerate one-row series, where spacing cannot
# be inferred.
DEFAULT_SINGLETON_INTERVAL = 900.0


def ingest_csv(path: str | Path) -> IngestReport:
    """Read a sensor-data CSV into evenly spaced Series.

    Rows are grouped by (node_id, modality). Within a group, timestamps must
    be strictly increasing and sit on a uniform grid within 1% of the modal
    spacing. Rows whose value cell is empty or non-finite are treated as
    missing. Runs of up to 3 consecutive missing grid points are filled by
    linear interpolation (counted in the report); longer gaps split the
    series into separate pieces.
    """
    def parse(ts, node, modality, raw):
        return parse_timestamp(ts), (node.strip(), Modality(modality.strip()).value), raw.strip()

    path = Path(path)
    groups: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for lineno, (t, key, raw) in _rows(path, SERIES_COLUMNS, parse):
        if not key[0]:
            raise DataError(f"{path}:{lineno}: malformed row (empty node_id)")
        group = groups.setdefault(key, ([], []))
        if raw == "":
            continue
        try:
            val = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed row (bad value {raw!r})") from None
        if math.isfinite(val):
            group[0].append(t)
            group[1].append(val)
    if not groups:
        raise DataError(f"{path}: no data rows")

    report = IngestReport(series=[])
    for key, (times, values) in groups.items():
        report.series.extend(_repair_group(key, times, values, report))
    return report


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable) -> None:
    """Write `header` and `rows` as CSV with newline line ends."""
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_series_csv(path: str | Path, series: Iterable[Series]) -> None:
    """Write series to the sensor-data CSV format, one row per sample."""
    write_csv(path, SERIES_COLUMNS,
              ([format_timestamp(s.start_time + k * s.sample_interval), s.node_id,
                s.modality.value, repr(val)]
               for s in series for k, val in enumerate(s.values.tolist())))


def read_precip_csv(path: str | Path) -> list[PrecipRecord]:
    """Read gauge records from a CSV with header ``timestamp,amount_mm``."""
    return [rec for _, rec in _rows(Path(path), ("timestamp", "amount_mm"),
                                    lambda ts, mm: PrecipRecord(parse_timestamp(ts), float(mm)))]


def read_events_csv(path: str | Path) -> list[EventWindow]:
    """Read event windows from a CSV with header ``start,end``."""
    return [ev for _, ev in _rows(Path(path), ("start", "end"),
                                  lambda a, b: EventWindow(parse_timestamp(a), parse_timestamp(b)))]


def write_events_csv(path: str | Path, events: Sequence[EventWindow]) -> None:
    write_csv(path, ("start", "end"),
              ([format_timestamp(ev.start), format_timestamp(ev.end)] for ev in events))


def write_detection_csv(path: str | Path, flags: Sequence[tuple[int, str]]) -> None:
    """Write flagged samples as rows of ``index,flag_source``.

    `flags` holds (sample index, source) pairs with source one of
    short/noise/llse; rows are written sorted by index then source.
    """
    write_csv(path, ("index", "flag_source"),
              ([int(idx), source] for idx, source in sorted(flags)))


def read_detection_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a detection CSV back into {flag_source: sorted index array}."""
    def parse(index, src):
        return json_number(int(index), "index", int), src.strip()

    path = Path(path)
    by_source: dict[str, list[int]] = {}
    for lineno, (idx, src) in _rows(path, ("index", "flag_source"), parse):
        if src not in ("short", "noise", "llse"):
            raise DataError(f"{path}:{lineno}: unknown flag_source {src!r}")
        by_source.setdefault(src, []).append(idx)
    return {src: np.unique(np.array(idxs, dtype=np.int64))
            for src, idxs in by_source.items()}


def read_json(path: str | Path, error: type[Exception] = DataError):
    """The JSON document at `path`; an unreadable or malformed file raises `error`."""
    with _open_text(Path(path), error) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None


def write_json(path: str | Path, doc) -> None:
    """`doc` as indented JSON with sorted keys and a final newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


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
