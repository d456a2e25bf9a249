"""Rainfall event extraction and event/sample index mapping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .series import EventWindow, PrecipRecord, Series, validate_events

__all__ = [
    "events_from_precipitation",
    "event_ranges",
    "event_sample_indices",
    "per_event_indices",
    "first_half_hour_indices",
    "FIRST_HALF_HOUR_S",
]

# Fallback gauge cadence when the record list is too short to infer one.
DEFAULT_RECORD_INTERVAL_S = 900.0
FIRST_HALF_HOUR_S = 1800.0


def _record_interval(records: Sequence[PrecipRecord]) -> float:
    times = np.array([r.time for r in records], dtype=np.float64)
    diffs = np.diff(times)
    if diffs.size == 0:
        return DEFAULT_RECORD_INTERVAL_S
    if np.any(diffs <= 0):
        raise DataError("precipitation records must be sorted by strictly increasing time")
    return float(np.median(diffs))


def events_from_precipitation(
    records: Sequence[PrecipRecord],
    min_total_mm: float = 1.0,
    gap_tolerance_s: float = 3600.0,
) -> list[EventWindow]:
    """Extract rainfall event windows from gauge records.

    A record's amount covers the interval ending at its timestamp, so a wet
    record at time t spans [t - dt, t). Maximal runs of wet records become
    candidate windows; candidates separated by at most `gap_tolerance_s` of
    dry time are merged; merged candidates whose total rainfall is below
    `min_total_mm` are discarded.

    Returns sorted, pairwise disjoint windows, each containing at least one
    wet record. Empty input yields an empty list.
    """
    if min_total_mm < 0:
        raise ConfigError(f"min_total_mm must be >= 0, got {min_total_mm}")
    if gap_tolerance_s < 0:
        raise ConfigError(f"gap_tolerance_s must be >= 0, got {gap_tolerance_s}")
    if not records:
        return []
    dt = _record_interval(records)

    # Maximal runs of consecutive wet records -> [start, end, total].
    runs: list[list[float]] = []
    prev_wet_time: float | None = None
    for rec in records:
        if rec.amount_mm > 0:
            contiguous = (prev_wet_time is not None
                          and rec.time - prev_wet_time <= dt * 1.01)
            if runs and contiguous:
                runs[-1][1] = rec.time
                runs[-1][2] += rec.amount_mm
            else:
                runs.append([rec.time - dt, rec.time, rec.amount_mm])
            prev_wet_time = rec.time
        else:
            prev_wet_time = None

    merged: list[list[float]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] <= gap_tolerance_s:
            merged[-1][1] = run[1]
            merged[-1][2] += run[2]
        else:
            merged.append(run)

    out = [EventWindow(start, end) for start, end, total in merged if total >= min_total_mm]
    validate_events(out)
    return out


def event_ranges(s: Series, events: Sequence[EventWindow],
                 opening_s: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sample range [lo[i], hi[i]) of each window, in window order.

    Sample k lies in window i iff start <= t_k < end on `s.times()`; since
    those times never decrease, a binary search for each bound gives exactly
    that set. With `opening_s`, window i ends at min(end, start + opening_s).
    """
    starts = np.array([ev.start for ev in events], dtype=np.float64)
    ends = np.array([ev.end for ev in events], dtype=np.float64)
    if opening_s is not None:
        ends = np.minimum(ends, starts + opening_s)
    t = s.times()
    return np.searchsorted(t, starts, "left"), np.searchsorted(t, ends, "left")


def event_sample_indices(s: Series, events: Sequence[EventWindow]) -> np.ndarray:
    """Sorted indices of samples whose timestamps fall inside any window.

    Membership is half-open: start <= t < end.
    """
    ordered = sorted(events, key=lambda e: e.start)
    validate_events(ordered)
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *map(np.arange, *event_ranges(s, ordered))])


def per_event_indices(s: Series, events: Sequence[EventWindow]) -> list[np.ndarray]:
    """Sample indices inside each window, one array per event."""
    return list(map(np.arange, *event_ranges(s, events)))


def first_half_hour_indices(
    s: Series,
    events: Sequence[EventWindow],
    duration_s: float = FIRST_HALF_HOUR_S,
) -> list[np.ndarray]:
    """Sample indices inside the opening `duration_s` of each window.

    The opening stretch is [start, min(end, start + duration_s)), measured
    from the event start regardless of where the series begins.
    """
    return list(map(np.arange, *event_ranges(s, events, duration_s)))
