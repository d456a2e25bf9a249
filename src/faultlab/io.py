"""File formats: sensor-data CSV ingestion, precipitation/event/detection CSVs,
JSON documents.

Timestamps are accepted as ISO-8601 (UTC assumed when no zone is given) or as
epoch seconds; written files always use epoch seconds so that byte-identical
reruns are possible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .series import EventWindow, Modality, PrecipRecord, Series

__all__ = [
    "CsvSchema",
    "IngestReport",
    "ingest_csv",
    "write_series_csv",
    "read_precip_csv",
    "read_events_csv",
    "write_events_csv",
    "write_detection_csv",
    "read_detection_csv",
    "read_json",
]

# Longest run of consecutive missing samples repaired by interpolation;
# longer gaps split the series instead.
MAX_INTERPOLATED_RUN = 3

# Relative tolerance on sample spacing.
SPACING_RTOL = 0.01


def _open_text(path: Path):
    try:
        return path.open(newline="")
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror or exc})") from None


@dataclass(frozen=True)
class CsvSchema:
    """Column names of a sensor-data CSV."""

    timestamp: str = "timestamp"
    node_id: str = "node_id"
    modality: str = "modality"
    value: str = "value"


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
        pass
    else:
        if not math.isfinite(t):
            raise DataError(f"non-finite timestamp {text!r}")
        return t
    iso = raw.replace("Z", "+00:00")
    try:
        dt = datetime.fromisoformat(iso)
    except ValueError:
        raise DataError(f"malformed timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_timestamp(t: float) -> str:
    return str(int(t)) if float(t).is_integer() else repr(float(t))


def format_value(v: float) -> str:
    return repr(float(v))


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


def ingest_csv(path: str | Path, schema: CsvSchema = CsvSchema()) -> IngestReport:
    """Read a sensor-data CSV into evenly spaced Series.

    Rows are grouped by (node_id, modality). Within a group, timestamps must
    be strictly increasing and sit on a uniform grid within 1% of the modal
    spacing. Rows whose value cell is empty or non-finite are treated as
    missing. Runs of up to 3 consecutive missing grid points are filled by
    linear interpolation (counted in the report); longer gaps split the
    series into separate pieces.
    """
    path = Path(path)
    groups: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    order: list[tuple[str, str]] = []
    with _open_text(path) as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file")
        for col in (schema.timestamp, schema.node_id, schema.modality, schema.value):
            if col not in reader.fieldnames:
                raise DataError(f"{path}: missing column {col!r}")
        for lineno, row in enumerate(reader, start=2):
            try:
                ts = parse_timestamp(row[schema.timestamp])
                node = row[schema.node_id].strip()
                modality = Modality(row[schema.modality].strip()).value
                raw = row[schema.value]
            except (DataError, ValueError, AttributeError, TypeError):
                raise DataError(f"{path}:{lineno}: malformed row") from None
            if not node:
                raise DataError(f"{path}:{lineno}: malformed row (empty node_id)")
            key = (node, modality)
            if key not in groups:
                groups[key] = ([], [])
                order.append(key)
            raw = (raw or "").strip()
            if raw == "":
                continue
            try:
                val = float(raw)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed row (bad value {raw!r})") from None
            if not math.isfinite(val):
                continue
            groups[key][0].append(ts)
            groups[key][1].append(val)
    if not groups:
        raise DataError(f"{path}: no data rows")

    report = IngestReport(series=[])
    for key in order:
        times, values = groups[key]
        report.series.extend(_repair_group(key, times, values, report))
    return report


def write_series_csv(path: str | Path, series: Iterable[Series],
                     schema: CsvSchema = CsvSchema()) -> None:
    """Write series to the sensor-data CSV format, one row per sample."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow([schema.timestamp, schema.node_id, schema.modality, schema.value])
        for s in series:
            t0, dt = s.start_time, s.sample_interval
            for k, val in enumerate(s.values):
                w.writerow([format_timestamp(t0 + k * dt), s.node_id,
                            s.modality.value, format_value(val)])


def read_precip_csv(path: str | Path) -> list[PrecipRecord]:
    """Read gauge records from a CSV with header ``timestamp,amount_mm``."""
    path = Path(path)
    out: list[PrecipRecord] = []
    with _open_text(path) as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None or not {"timestamp", "amount_mm"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns timestamp,amount_mm")
        for lineno, row in enumerate(reader, start=2):
            try:
                out.append(PrecipRecord(parse_timestamp(row["timestamp"]),
                                        float(row["amount_mm"])))
            except (DataError, ValueError, TypeError):
                raise DataError(f"{path}:{lineno}: malformed row") from None
    return out


def read_events_csv(path: str | Path) -> list[EventWindow]:
    """Read event windows from a CSV with header ``start,end``."""
    path = Path(path)
    out: list[EventWindow] = []
    with _open_text(path) as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None or not {"start", "end"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns start,end")
        for lineno, row in enumerate(reader, start=2):
            try:
                out.append(EventWindow(parse_timestamp(row["start"]),
                                       parse_timestamp(row["end"])))
            except (DataError, ValueError, TypeError):
                raise DataError(f"{path}:{lineno}: malformed row") from None
    return out


def write_events_csv(path: str | Path, events: Sequence[EventWindow]) -> None:
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["start", "end"])
        for ev in events:
            w.writerow([format_timestamp(ev.start), format_timestamp(ev.end)])


def write_detection_csv(path: str | Path, flags: Sequence[tuple[int, str]]) -> None:
    """Write flagged samples as rows of ``index,flag_source``.

    `flags` holds (sample index, source) pairs with source one of
    short/noise/llse; rows are written sorted by index then source.
    """
    with Path(path).open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["index", "flag_source"])
        for idx, source in sorted(flags):
            w.writerow([int(idx), source])


def read_detection_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a detection CSV back into {flag_source: sorted index array}."""
    path = Path(path)
    by_source: dict[str, list[int]] = {}
    with _open_text(path) as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        if reader.fieldnames is None or not {"index", "flag_source"} <= set(reader.fieldnames):
            raise DataError(f"{path}: expected columns index,flag_source")
        for lineno, row in enumerate(reader, start=2):
            src = (row["flag_source"] or "").strip()
            if src not in ("short", "noise", "llse"):
                raise DataError(f"{path}:{lineno}: unknown flag_source {src!r}")
            try:
                idx = int(row["index"])
            except (ValueError, TypeError):
                raise DataError(f"{path}:{lineno}: malformed row") from None
            by_source.setdefault(src, []).append(idx)
    return {src: np.unique(np.array(idxs, dtype=np.int64))
            for src, idxs in by_source.items()}


def read_json(path: str | Path, error: type[Exception] = DataError):
    """The JSON document at `path`; an unreadable or malformed file raises `error`."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None
    except ValueError as exc:
        raise error(f"{path}: not valid JSON ({exc})") from None
