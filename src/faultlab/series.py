"""Core value types: sensor series, event windows, rain records, fault labels."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from typing import Callable, Hashable, Sequence

import numpy as np

from .errors import DataError

__all__ = [
    "Modality",
    "Series",
    "EventWindow",
    "PrecipRecord",
    "GroundTruthLabels",
    "validate_events",
]


class Modality(str, Enum):
    """Measurement channel of a sensor series."""

    BOX_TEMP = "box_temp"
    SOIL_MOISTURE = "soil_moisture"


def _int64(raw) -> np.ndarray:
    """`raw` as an int64 array. DataError unless every entry is an integer
    that int64 holds: numpy would truncate a float, wrap a uint64, turn NaN
    into INT64_MIN and raise OverflowError past int64."""
    arr = np.asarray(raw)
    kind = arr.dtype.kind
    if kind == "u":
        ok = not arr.size or arr.max() < 2**63
    elif kind == "f":
        ok = ((-2.0**63 <= arr) & (arr < 2.0**63) & (arr == np.trunc(arr))).all()
    elif kind == "O":
        try:
            ok = all(-2**63 <= int(v) == v < 2**63 for v in arr.flat)
        except (TypeError, ValueError, OverflowError):
            ok = False
    else:
        ok = kind in "bi"
    if not ok:
        raise DataError("indices must be integers within the int64 range")
    return np.asarray(arr, np.int64)


def index_array(raw) -> np.ndarray:
    """`raw` as a read-only, sorted, distinct int64 index array. np.unique (a
    sort) runs only when `raw` is not already strictly increasing."""
    idx = _int64(raw)
    if idx.ndim != 1 or not (idx[1:] > idx[:-1]).all():
        idx = np.unique(idx)
    elif idx is raw or idx.base is not None:  # never alias the caller's memory
        idx = idx.copy()
    idx.flags.writeable = False
    return idx


def _finite(x) -> bool:
    """math.isfinite, but False, not OverflowError, for an int past the float range."""
    return abs(x) <= sys.float_info.max


def _shown(x) -> str:
    """`x` as an error text shows it: an int of 20 digits or more in
    scientific notation, so that no text spells out hundreds of digits (or
    hits Python's limit on converting an int to a string)."""
    return f"{Decimal(x):.6e}" if isinstance(x, int) and abs(x) >= 10**20 else str(x)


def _as_modality(value: "Modality | str") -> Modality:
    try:
        return Modality(value)
    except ValueError:
        raise DataError(f"unknown modality {value!r}") from None


@dataclass(frozen=True)
class Series:
    """An evenly sampled sensor series for one (node, modality) pair.

    Sample k sits at time ``start_time + k * sample_interval`` (UTC seconds).
    Values are stored as a read-only float64 array; operations never mutate
    their inputs and return new Series objects.
    """

    node_id: str
    modality: Modality
    start_time: float
    sample_interval: float
    values: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "modality", _as_modality(self.modality))
        if not (self.sample_interval > 0):
            raise DataError(f"sample_interval must be > 0, got {_shown(self.sample_interval)}")
        if not (_finite(self.start_time) and _finite(self.sample_interval)):
            raise DataError(f"start_time and sample_interval must be finite, got "
                            f"{_shown(self.start_time)} and {_shown(self.sample_interval)}")
        vals = np.asarray(self.values, dtype=np.float64).copy()
        if vals.ndim != 1:
            raise DataError("values must be one-dimensional")
        if vals.size and not _finite(self.time_at(vals.size - 1)):
            raise DataError(f"sample {vals.size - 1} sits at time "
                            f"{_shown(self.time_at(vals.size - 1))}, not a finite time")
        if not np.all(np.isfinite(vals)):
            raise DataError("values must be finite (no NaN/inf)")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]

    def time_at(self, index: int) -> float:
        return self.start_time + index * self.sample_interval

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(len(self)) * self.sample_interval

    def derived(self, key: Hashable, compute: Callable[[], np.ndarray]) -> np.ndarray:
        """`compute()`, run on the first call for `key` and kept read-only by
        this series; later calls return the kept array. A `compute` that
        raises stores nothing, so every call raises again."""
        value = self._derived.get(key)
        if value is None:
            value = compute()
            value.flags.writeable = False
            self._derived[key] = value
        return value

    def with_values(self, values: np.ndarray) -> "Series":
        """New series with the same placement but different values."""
        return Series(self.node_id, self.modality, self.start_time,
                      self.sample_interval, values)

    def same_grid(self, other: "Series") -> bool:
        """True when both series share start, spacing, and length."""
        return (self.start_time == other.start_time
                and self.sample_interval == other.sample_interval
                and len(self) == len(other))

    def subseries(self, i0: int, i1: int) -> "Series":
        """Samples [i0, i1) as a new series with a shifted start time."""
        if not 0 <= i0 < i1 <= len(self):
            raise DataError(f"bad subseries bounds [{i0}, {i1}) for length {len(self)}")
        return Series(self.node_id, self.modality, self.time_at(i0),
                      self.sample_interval, self.values[i0:i1])


@dataclass(frozen=True)
class EventWindow:
    """Half-open time window [start, end) of a rainfall event, in UTC seconds."""

    start: float
    end: float

    def __post_init__(self):
        if not (_finite(self.start) and _finite(self.end)):
            raise DataError("event window bounds must be finite")
        if not self.start < self.end:
            raise DataError(f"event window needs start < end, "
                            f"got [{_shown(self.start)}, {_shown(self.end)})")

    @property
    def duration(self) -> float:
        return self.end - self.start


def validate_events(events: Sequence[EventWindow]) -> None:
    """Check that event windows are sorted by start and pairwise disjoint."""
    for prev, cur in zip(events, events[1:]):
        if cur.start < prev.end:
            raise DataError(
                f"event windows must be disjoint and sorted: "
                f"[{prev.start}, {prev.end}) then [{cur.start}, {cur.end})")


@dataclass(frozen=True)
class PrecipRecord:
    """One rain-gauge record: depth in mm accumulated over the interval ending at `time`."""

    time: float
    amount_mm: float

    def __post_init__(self):
        if not _finite(self.time):
            raise DataError("precipitation record time must be finite")
        if not (_finite(self.amount_mm) and self.amount_mm >= 0):
            raise DataError(f"precipitation amount must be >= 0, got {_shown(self.amount_mm)}")


@dataclass(frozen=True, eq=False)
class GroundTruthLabels:
    """Positions of injected faults: spike samples as a read-only, sorted int64
    array, noise bursts as sorted (start, length) pairs of Python ints."""

    short_indices: np.ndarray = ()
    noise_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        idx = index_array(self.short_indices)
        if idx.size and idx[0] < 0:
            raise DataError("short fault indices must be >= 0")
        if idx.size != np.size(self.short_indices):
            raise DataError("short fault indices must be distinct")
        wins = tuple(sorted((int(s), int(n)) for s, n in self.noise_windows))
        for s, n in wins:
            if s < 0 or n <= 0:
                raise DataError(f"noise burst ({s}, {n}) must have start >= 0 and length > 0")
        for (s1, n1), (s2, _) in zip(wins, wins[1:]):
            if s2 < s1 + n1:
                raise DataError("noise bursts must not overlap")
        object.__setattr__(self, "short_indices", idx)
        object.__setattr__(self, "noise_windows", wins)

    def check_bounds(self, n: int) -> None:
        """Validate that every labeled position fits a series of length n."""
        if self.short_indices.size and self.short_indices[-1] >= n:
            raise DataError(f"short fault index {self.short_indices[-1]} out of bounds for n={n}")
        for s, ln in self.noise_windows:
            if s + ln > n:
                raise DataError(f"noise burst ({s}, {ln}) out of bounds for n={n}")
