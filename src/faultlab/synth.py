"""Synthetic event-bearing sensor data.

Two channels are modeled. Box temperature follows a diurnal sinusoid (minimum
at 00:00 UTC, maximum at 12:00) with Gaussian sensor noise and a depression
during rainfall events: an occlusion factor ramps 0 -> 1 across the event and
decays back to 0 over a recovery span. Soil moisture sits at a noisy baseline
and responds to each event with a sudden rise (within one sample) to
spike_gain * rain_mm above baseline, holding through the event and decaying
exponentially afterwards; values are clamped to [0, 1].

Responses sit on the samples `events.event_ranges` gives each window, the
[start, end) that scoring counts; recovery and decay begin at its end.

Responses are built in place, in arrays already held. Soil decay tails are
added chunk by chunk: each chunk of the series takes every event's hold and
tail, in the events' order, before the next chunk is touched, so every
sample gets the same additions in the same order as one pass per event,
and a soil generator keeps two series-length arrays and one chunk alive
(box temperature three series lengths). A profile whose values overflow to
inf or NaN is refused with ConfigError.

A decay tail on the uniform grid is a factor times the powers r**k of
r = exp(-interval/tau), so every series builds those powers once, by
multiplication only, and every exponential comes from `_exp`, which uses
IEEE basic operations alone. No value then depends on the C library or on
the SIMD level numpy dispatches to, and the soil values differ from the
per-sample `exp(-(t - end) / tau)` form by at most about 1e-13 relative.

All randomness is NumPy PCG64; a seed reproduces a series bit-identically,
and the noise-free component does not depend on the seed at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError
from .events import event_ranges
from .series import EventWindow, Modality, Series

__all__ = [
    "BoxTempProfile",
    "SoilMoistureProfile",
    "ScheduledEvent",
    "DeploymentSpec",
    "gen_box_temperature",
    "gen_soil_moisture",
    "gen_deployment",
    "make_event_schedule",
    "check_grid",
]

DAY_S = 86400.0

# Most samples in one generated series: about 190 times a year at 60 s
# (525,600), and a refusal instead of an allocation that cannot succeed.
MAX_GRID_SAMPLES = 10**8


@dataclass(frozen=True)
class BoxTempProfile:
    """Diurnal temperature shape in degrees C."""

    mean_c: float = 25.0
    amplitude_c: float = 6.0
    noise_sigma_c: float = 0.3
    event_depression_c: float = 4.0
    recovery_s: float = 21600.0

    def __post_init__(self):
        if math.copysign(1, self.noise_sigma_c) < 0 or not 0 <= self.recovery_s < math.inf:
            raise ConfigError("noise_sigma_c must be >= 0 and recovery_s finite and >= 0")


@dataclass(frozen=True)
class SoilMoistureProfile:
    """Soil-moisture response shape in volumetric water content (0..1)."""

    baseline_vwc: float = 0.20
    baseline_noise_vwc: float = 0.003
    spike_gain_vwc_per_mm: float = 0.015
    decay_tau_s: float = 172800.0

    def __post_init__(self):
        if not 0 <= self.baseline_vwc <= 1:
            raise ConfigError(f"baseline_vwc must lie in [0, 1], got {self.baseline_vwc}")
        if math.copysign(1, self.baseline_noise_vwc) < 0:
            raise ConfigError("baseline_noise_vwc must be >= 0")
        if not 0 < self.decay_tau_s < math.inf:
            raise ConfigError("decay_tau_s must be finite and > 0")


@dataclass(frozen=True)
class ScheduledEvent:
    """One rainfall event: its window plus the rain depth driving the response."""

    window: EventWindow
    rain_mm: float

    def __post_init__(self):
        if not (math.isfinite(self.rain_mm) and self.rain_mm > 0):
            raise ConfigError(f"rain_mm must be > 0, got {self.rain_mm}")


@dataclass(frozen=True)
class DeploymentSpec:
    """A multi-node site sharing one event schedule.

    response_scales multiply the soil spike gain per node; lags shift each
    node's soil response in time. Box temperature shares the site profile
    and differs across nodes only in sensor noise.
    """

    node_ids: tuple[str, ...]
    response_scales: tuple[float, ...]
    lags_s: tuple[float, ...]
    schedule: tuple[ScheduledEvent, ...]
    seed: int
    days: int = 90
    interval_s: float = 600.0

    def __post_init__(self):
        object.__setattr__(self, "node_ids", tuple(self.node_ids))
        object.__setattr__(self, "response_scales", tuple(self.response_scales))
        object.__setattr__(self, "lags_s", tuple(self.lags_s))
        object.__setattr__(self, "schedule", tuple(self.schedule))
        if not self.node_ids:
            raise ConfigError("deployment needs at least one node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ConfigError("node ids must be distinct")
        if len(self.response_scales) != len(self.node_ids) or \
                len(self.lags_s) != len(self.node_ids):
            raise ConfigError("response_scales and lags_s must match node_ids in length")
        if any(sc < 0 or not math.isfinite(sc) for sc in self.response_scales):
            raise ConfigError("response scales must be finite and >= 0")


def check_grid(days: int, interval_s: float) -> int:
    """Samples in a grid of `days` at `interval_s`; a grid no series can hold
    raises ConfigError."""
    if not (isinstance(days, int) and days >= 1):
        raise ConfigError(f"days must be an integer >= 1, got {days!r}")
    if not (interval_s > 0 and math.isfinite(interval_s)):
        raise ConfigError(f"interval_s must be > 0, got {interval_s}")
    per_day = DAY_S / interval_s  # inf for a subnormal interval
    if not math.isfinite(per_day) or abs(per_day - round(per_day)) > 1e-9:
        raise ConfigError(f"interval_s must divide 24 h, got {interval_s}")
    n = days * int(round(per_day))
    if n < 1:
        raise ConfigError(f"interval_s must be at most 24 h, got {interval_s}")
    if n > MAX_GRID_SAMPLES:
        raise ConfigError(f"a grid of {n} samples exceeds {MAX_GRID_SAMPLES} per series")
    return n


# exp's Cody-Waite reduction and polynomial, as in fdlibm's e_exp.c: ln 2 as
# a 32-bit head (k * _LN2_HI is exact for |k| < 2**11) plus a tail, and the
# minimax fit of r * (exp(r) + 1) / (exp(r) - 1) on |r| <= ln(2) / 2.
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e+00
_P1, _P2, _P3, _P4, _P5 = (1.66666666666666019037e-01, -2.77777777770155933842e-03,
                           6.61375632143793436117e-05, -1.65339022054652515390e-06,
                           4.13813679705723846039e-08)


def _exp(x: float) -> float:
    """exp(x) for x <= 0 (-inf included), within 1 ulp, from + - * / alone.

    x = k ln 2 + r, exp(r) from a fixed polynomial, then 2**k as an int
    division, which Python rounds once (also to a subnormal) on every
    platform; so the bits do not depend on the C library or the CPU.
    """
    if not x >= -746.0:  # exp(x) < 2**-1075 rounds to 0
        return 0.0
    k = round(x * _INV_LN2)
    hi = x - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    rr = r * r
    c = r - rr * (_P1 + rr * (_P2 + rr * (_P3 + rr * (_P4 + rr * _P5))))
    num, den = (1.0 - ((lo - (r * c) / (2.0 - c)) - hi)).as_integer_ratio()
    return num / (den << -k)


# Samples per chunk of the soil tail loop. Every event adds its hold and
# tail to one chunk before the next chunk is touched, so the chunk of the
# excess, of the powers and of the tail buffer (3 x 256 KiB) stay in a
# 2 MiB L2 cache instead of streaming the whole series once per event.
_CHUNK = 32768

# Powers per block of `_powers`. Within a block each power is one rounding
# from the last, and the blocks' scales are powers of a correctly rounded
# r**_BLOCK, so r**k takes at most _BLOCK + 2 * k / _BLOCK roundings.
_BLOCK = 1024


def _powers(r: float, n: int) -> np.ndarray:
    """r**k for k < n (0 <= r <= 1), by multiplication only: a running product
    within each block of _BLOCK, times a running product across blocks."""
    low = np.full(_BLOCK, r)
    low[0] = 1.0
    np.multiply.accumulate(low, out=low)  # r**i for i < _BLOCK
    num, den = r.as_integer_ratio()  # den is a power of two
    high = np.full(-(-n // _BLOCK), num**_BLOCK / (1 << _BLOCK * (den.bit_length() - 1)))
    high[0] = 1.0
    np.multiply.accumulate(high, out=high)  # (r**_BLOCK)**j
    return np.multiply.outer(high, low).reshape(-1)[:n]


def _occlusion(t: np.ndarray, windows: Sequence[EventWindow], recovery_s: float) -> np.ndarray:
    """Largest occlusion of any window: a ramp 0 -> 1 across it, a linear fall to 0 after."""
    occ = np.zeros_like(t)
    lo, hi = event_ranges(t, windows)
    _, rec_hi = event_ranges(t, [EventWindow(w.start, w.end + recovery_s) for w in windows])
    for w, a, b, c in zip(windows, lo.tolist(), hi.tolist(), rec_hi.tolist()):
        np.maximum(occ[a:b], (t[a:b] - w.start) / w.duration, out=occ[a:b])
        np.maximum(occ[b:c], 1.0 - (t[b:c] - w.end) / recovery_s, out=occ[b:c])
    return occ


def _check_finite(values: np.ndarray, profile) -> None:
    """Refuse a profile whose values overflowed to inf or NaN."""
    if not np.isfinite(values).all():
        raise ConfigError(f"{profile} gives values that are not finite")


def gen_box_temperature(days: int, profile: BoxTempProfile, events: Sequence[EventWindow],
                        interval_s: float = 600.0, seed=0,
                        node_id: str = "node1", start_time: float = 0.0) -> Series:
    """Generate a box-temperature series starting at `start_time` (UTC s),
    depressed during each of the `EventWindow`s `events`."""
    n = check_grid(days, interval_s)
    t = start_time + np.arange(n) * float(interval_s)
    with np.errstate(over="ignore", invalid="ignore"):
        occ = _occlusion(t, events, profile.recovery_s)
        values = np.mod(t, DAY_S, out=t)  # t becomes the phase, the diurnal base, the values
        values *= 2.0 * np.pi
        values /= DAY_S
        values -= np.pi / 2.0
        np.sin(values, out=values)
        values *= profile.amplitude_c
        values += profile.mean_c
        values += np.random.default_rng(seed).normal(0.0, profile.noise_sigma_c, size=n)
        np.clip(occ, 0.0, 1.0, out=occ)
        occ *= profile.event_depression_c
        values -= occ
    _check_finite(values, profile)
    return Series(node_id, Modality.BOX_TEMP, start_time, float(interval_s), values)


def gen_soil_moisture(days: int, profile: SoilMoistureProfile,
                      events: Sequence[ScheduledEvent],
                      interval_s: float = 600.0, seed=0,
                      node_id: str = "node1", start_time: float = 0.0) -> Series:
    """Generate a soil-moisture series starting at `start_time` (UTC s).

    Each of the `ScheduledEvent`s `events` lifts the signal by amp =
    spike_gain * rain_mm from its first sample on, holds the excess through
    the event, and decays it exponentially with the profile's time constant
    tau afterwards: with t_b the first sample at or past the event's end, the
    sample t_b + k * interval carries amp * exp((end - t_b) / tau) * r**k,
    r = exp(-interval / tau). Responses of overlapping decays add; the final
    value is clamped to [0, 1].
    """
    n = check_grid(days, interval_s)
    t = start_time + np.arange(n) * float(interval_s)
    lo, hi = event_ranges(t, [ev.window for ev in events])
    tail_starts = t[np.minimum(hi, n - 1)].tolist()  # t_b of each event
    del t  # gone before the powers and the buffer are made
    tau = profile.decay_tau_s
    spans = []  # (amp, tail factor, a, b) of each event with a response, in order
    for ev, a, b, t_b in zip(events, lo.tolist(), hi.tolist(), tail_starts):
        amp = profile.spike_gain_vwc_per_mm * ev.rain_mm
        if amp != 0.0:  # a tail inside the series starts at t_b >= end
            f = amp * _exp((ev.window.end - t_b) / tau) if b < n else 0.0
            spans.append((amp, f, a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _powers(_exp(-float(interval_s) / tau), n)
        excess = np.zeros(n)
        buf = np.empty(min(n, _CHUNK))  # a chunk of one event's decay tail
        for c0 in range(0, n, _CHUNK):
            c1 = min(c0 + _CHUNK, n)
            for amp, f, a, b in spans:
                if a < c1 and c0 < b:  # the hold, over [a, b)
                    excess[max(a, c0):min(b, c1)] += amp
                if b < c1:  # the tail, from t_b >= end on
                    s = max(b, c0)
                    excess[s:c1] += np.multiply(powers[s - b:c1 - b], f, out=buf[:c1 - s])
        del buf, powers  # gone before the noise is drawn
        values = excess  # baseline + excess + noise, clamped, in place
        values += profile.baseline_vwc
        values += np.random.default_rng(seed).normal(0.0, profile.baseline_noise_vwc, size=n)
        np.clip(values, 0.0, 1.0, out=values)
    _check_finite(values, profile)
    return Series(node_id, Modality.SOIL_MOISTURE, start_time, float(interval_s), values)


def _shift_schedule(schedule: Sequence[ScheduledEvent], lag_s: float) -> list[ScheduledEvent]:
    if lag_s == 0:
        return list(schedule)
    return [ScheduledEvent(EventWindow(ev.window.start + lag_s, ev.window.end + lag_s),
                           ev.rain_mm) for ev in schedule]


def gen_deployment(spec: DeploymentSpec,
                   box_profile: BoxTempProfile = BoxTempProfile(),
                   soil_profile: SoilMoistureProfile = SoilMoistureProfile(),
                   node: str | None = None,
                   modality: Modality | None = None) -> tuple[list[Series], list[EventWindow]]:
    """Generate soil-moisture and box-temperature series for every node.

    Node i draws its noise from streams derived as (spec.seed XOR i, channel),
    so nodes and channels are independent while the whole deployment stays
    reproducible from one seed, and a series comes out the same whichever
    others are generated. `node` and `modality`, when given, generate only
    the series of that node and that modality. Returns the series (soil, then
    box, per node) and the shared (unshifted) event windows.
    """
    series: list[Series] = []
    windows = [ev.window for ev in spec.schedule]
    for i, node_id in enumerate(spec.node_ids):
        if node is not None and node_id != node:
            continue
        node_seed = spec.seed ^ i
        if modality in (None, Modality.SOIL_MOISTURE):
            soil = replace(soil_profile, spike_gain_vwc_per_mm=
                           soil_profile.spike_gain_vwc_per_mm * spec.response_scales[i])
            shifted = _shift_schedule(spec.schedule, spec.lags_s[i])
            series.append(gen_soil_moisture(spec.days, soil, shifted, spec.interval_s,
                                            seed=[node_seed, 0], node_id=node_id))
        if modality in (None, Modality.BOX_TEMP):
            series.append(gen_box_temperature(spec.days, box_profile, windows,
                                              spec.interval_s, seed=[node_seed, 1],
                                              node_id=node_id))
    return series, windows


def make_event_schedule(days: int, n_events: int, seed,
                        span_start_s: float = 0.0,
                        min_duration_s: float = 7200.0,
                        max_duration_s: float = 28800.0,
                        min_rain_mm: float = 2.0,
                        max_rain_mm: float = 30.0) -> tuple[ScheduledEvent, ...]:
    """Place `n_events` disjoint events across `days`, seeded and sorted.

    The span is cut into equal slots, one event per slot at a random offset,
    which keeps events disjoint and roughly evenly spread. Durations and
    rain depths are drawn uniformly from the given ranges.
    """
    if n_events < 0:
        raise ConfigError(f"n_events must be >= 0, got {n_events}")
    if not (0 < min_duration_s <= max_duration_s):
        raise ConfigError("need 0 < min_duration_s <= max_duration_s")
    if not (0 < min_rain_mm <= max_rain_mm):
        raise ConfigError("need 0 < min_rain_mm <= max_rain_mm")
    if n_events == 0:
        return ()
    span = days * DAY_S
    slot = span / n_events
    if slot <= max_duration_s:
        raise DataError(f"{n_events} events of up to {max_duration_s} s "
                        f"do not fit in {days} days")
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_events):
        duration = float(rng.uniform(min_duration_s, max_duration_s))
        offset = float(rng.uniform(0.0, slot - duration))
        start = span_start_s + i * slot + offset
        rain = float(rng.uniform(min_rain_mm, max_rain_mm))
        out.append(ScheduledEvent(EventWindow(start, start + duration), rain))
    return tuple(out)
