"""Synthetic deployment generators: closed-form shapes, seeding, node structure."""

import math
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultlab import (
    BoxTempProfile,
    ConfigError,
    DataError,
    DeploymentSpec,
    EventWindow,
    Modality,
    ScheduledEvent,
    SoilMoistureProfile,
    gen_box_temperature,
    gen_deployment,
    gen_soil_moisture,
    make_event_schedule,
)
from faultlab import synth
from faultlab.events import event_ranges

DAY = 86400.0


def test_box_noise_free_is_exact_sinusoid():
    prof = BoxTempProfile(noise_sigma_c=0.0)
    s = gen_box_temperature(2, prof, [], interval_s=600.0, seed=9)
    t = s.times()
    expect = 25.0 + 6.0 * np.sin(2 * np.pi * np.mod(t, DAY) / DAY - np.pi / 2)
    assert np.allclose(s.values, expect, atol=1e-12)
    # coldest at midnight, warmest at noon
    assert s.values[0] == 19.0
    assert np.isclose(s.values[72], 31.0)  # 12 h at 600 s
    assert np.argmin(s.values[:144]) == 0 and np.argmax(s.values[:144]) == 72


def test_box_zero_depression_matches_event_free_bitwise():
    prof = BoxTempProfile(event_depression_c=0.0)
    ev = [EventWindow(3600.0, 10800.0)]
    a = gen_box_temperature(1, prof, ev, seed=42)
    b = gen_box_temperature(1, prof, [], seed=42)
    assert np.array_equal(a.values, b.values)


def test_box_occlusion_ramp_and_recovery():
    prof = BoxTempProfile(noise_sigma_c=0.0, event_depression_c=4.0, recovery_s=7200.0)
    ev = EventWindow(0.0, 7200.0)
    s = gen_box_temperature(1, prof, [ev], interval_s=600.0, seed=0)
    clean = gen_box_temperature(1, prof, [], interval_s=600.0, seed=0)
    dip = clean.values - s.values
    # ramp grows linearly over the event: 0 at onset, full at the end sample
    assert dip[0] == 0.0
    assert np.isclose(dip[6], 4.0 * (3600.0 / 7200.0))
    assert np.isclose(dip[12], 4.0)
    # linear recovery back to zero over recovery_s
    assert np.isclose(dip[18], 2.0)
    assert dip[24] == 0.0
    assert np.all(dip[25:] == 0.0)


def test_box_average_nonevent_day_recovers_sinusoid():
    prof = BoxTempProfile()  # noise 0.3
    ev = [EventWindow(2 * DAY, 2 * DAY + 14400.0)]
    s = gen_box_temperature(35, prof, ev, interval_s=600.0, seed=123)
    per_day = s.values.reshape(35, 144)
    clean_days = np.r_[0:2, 4:35]  # skip the event day and the recovery tail
    avg = per_day[clean_days].mean(axis=0)
    t = np.arange(144) * 600.0
    expect = 25.0 + 6.0 * np.sin(2 * np.pi * t / DAY - np.pi / 2)
    assert np.max(np.abs(avg - expect)) < 3 * 0.3 / np.sqrt(len(clean_days))


def test_soil_constant_without_events():
    prof = SoilMoistureProfile(baseline_noise_vwc=0.0)
    s = gen_soil_moisture(1, prof, [], seed=3)
    assert np.all(s.values == 0.20)
    assert s.modality is Modality.SOIL_MOISTURE


def test_soil_single_event_closed_form():
    tau = 172800.0
    prof = SoilMoistureProfile(baseline_noise_vwc=0.0, decay_tau_s=tau)
    end = 21600.0
    ev = [ScheduledEvent(EventWindow(7200.0, end), 10.0)]
    s = gen_soil_moisture(5, prof, ev, interval_s=600.0, seed=0)
    peak_excess = 0.015 * 10.0  # a 10 mm event lifts the signal by 0.15
    k_end = int(end / 600.0)
    assert np.isclose(s.values[k_end], 0.20 + peak_excess)
    k_tau = int((end + tau) / 600.0)
    assert np.isclose(s.values[k_tau], 0.20 + peak_excess / np.e)
    # onset rises within one sample
    k_on = int(7200.0 / 600.0)
    assert s.values[k_on - 1] == 0.20
    assert np.isclose(s.values[k_on], 0.20 + peak_excess)


def test_soil_onset_jump_dominates_first_differences():
    prof = SoilMoistureProfile()  # default noise 0.003
    ev = [ScheduledEvent(EventWindow(30000.0, 50000.0), 10.0)]
    s = gen_soil_moisture(3, prof, ev, seed=8)
    diffs = np.abs(np.diff(s.values))
    onset = int(30000.0 / 600.0)
    assert np.argmax(diffs) == onset - 1  # the jump into the onset sample


def test_soil_clamped_to_unit_interval():
    prof = SoilMoistureProfile(baseline_vwc=0.9, baseline_noise_vwc=0.0)
    ev = [ScheduledEvent(EventWindow(0.0, 3600.0), 100.0)]  # would exceed 1.0
    s = gen_soil_moisture(1, prof, ev, seed=0)
    assert s.values.max() == 1.0
    rng = np.random.default_rng(11)
    for seed in range(5):
        noisy = gen_soil_moisture(1, SoilMoistureProfile(baseline_noise_vwc=0.2),
                                  [], seed=seed)
        assert noisy.values.min() >= 0.0 and noisy.values.max() <= 1.0


def test_generators_deterministic_and_seed_moves_noise_only():
    prof = BoxTempProfile()
    ev = [EventWindow(3600.0, 7200.0)]
    a = gen_box_temperature(1, prof, ev, seed=5)
    b = gen_box_temperature(1, prof, ev, seed=5)
    c = gen_box_temperature(1, prof, ev, seed=6)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # the closed-form part is seed-free: noise-free runs agree for any seed
    quiet = BoxTempProfile(noise_sigma_c=0.0)
    x = gen_box_temperature(1, quiet, ev, seed=5)
    y = gen_box_temperature(1, quiet, ev, seed=977)
    assert np.array_equal(x.values, y.values)


def test_grid_validation():
    with pytest.raises(ConfigError):
        gen_box_temperature(0, BoxTempProfile(), [])
    with pytest.raises(ConfigError):
        gen_box_temperature(1, BoxTempProfile(), [], interval_s=7000.0)  # not a divisor
    with pytest.raises(ConfigError):
        SoilMoistureProfile(baseline_vwc=1.5)
    with pytest.raises(ConfigError):
        ScheduledEvent(EventWindow(0.0, 10.0), rain_mm=0.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_profiles_require_finite_spans(bad):
    with pytest.raises(ConfigError):
        BoxTempProfile(recovery_s=bad)
    with pytest.raises(ConfigError):
        SoilMoistureProfile(decay_tau_s=bad)


def quiet_profiles():
    return (BoxTempProfile(noise_sigma_c=0.0),
            SoilMoistureProfile(baseline_noise_vwc=0.0))


def deployment(scales, lags, schedule, seed=100, days=3):
    return DeploymentSpec(node_ids=tuple(f"n{k}" for k in range(len(scales))),
                          response_scales=tuple(scales), lags_s=tuple(lags),
                          schedule=tuple(schedule), seed=seed, days=days)


def test_deployment_identical_nodes_when_symmetric():
    box, soil = quiet_profiles()
    sched = [ScheduledEvent(EventWindow(3600.0, 14400.0), 6.0)]
    series, windows = gen_deployment(deployment([1, 1, 1], [0, 0, 0], sched),
                                     box, soil)
    soils = [s for s in series if s.modality is Modality.SOIL_MOISTURE]
    assert len(series) == 6 and len(soils) == 3
    assert np.array_equal(soils[0].values, soils[1].values)
    assert np.array_equal(soils[0].values, soils[2].values)
    assert windows == [sched[0].window]


def test_deployment_response_scale_attenuates_exactly():
    box, soil = quiet_profiles()
    sched = [ScheduledEvent(EventWindow(3600.0, 14400.0), 6.0)]
    series, _ = gen_deployment(deployment([1, 1, 0.3], [0, 0, 0], sched), box, soil)
    soils = [s for s in series if s.modality is Modality.SOIL_MOISTURE]
    full = soils[0].values - 0.20
    weak = soils[2].values - 0.20
    assert np.allclose(weak, 0.3 * full, atol=1e-12)
    # box temperature is unaffected by the soil response scale
    boxes = [s for s in series if s.modality is Modality.BOX_TEMP]
    assert np.array_equal(boxes[0].values, boxes[2].values)


def test_deployment_lag_shifts_soil_response():
    box, soil = quiet_profiles()
    sched = [ScheduledEvent(EventWindow(3600.0, 14400.0), 6.0)]
    lag = 2 * 600.0
    series, windows = gen_deployment(deployment([1, 1], [0, lag], sched), box, soil)
    soils = [s for s in series if s.modality is Modality.SOIL_MOISTURE]
    a, b = soils[0].values, soils[1].values
    # brute-force cross-correlation peaks at a 2-sample offset
    offsets = range(-6, 7)
    scores = [np.dot(a[6:-6] - 0.2, np.roll(b, -off)[6:-6] - 0.2) for off in offsets]
    assert offsets[int(np.argmax(scores))] == 2
    assert np.array_equal(np.roll(b, -2)[2:-2], a[2:-2])
    # reported ground-truth windows stay unshifted
    assert windows == [sched[0].window]


def test_deployment_nodes_have_independent_noise():
    sched = [ScheduledEvent(EventWindow(3600.0, 14400.0), 6.0)]
    series, _ = gen_deployment(deployment([1, 1], [0, 0], sched))
    soils = [s for s in series if s.modality is Modality.SOIL_MOISTURE]
    assert not np.array_equal(soils[0].values, soils[1].values)
    # deterministic replay
    series2, _ = gen_deployment(deployment([1, 1], [0, 0], sched))
    assert all(np.array_equal(x.values, y.values) for x, y in zip(series, series2))


def test_deployment_selection_matches_the_full_run():
    sched = [ScheduledEvent(EventWindow(3600.0, 14400.0), 6.0),
             ScheduledEvent(EventWindow(90000.0, 104400.0), 12.0)]
    spec = deployment([1, 0.4, 2.5], [0, 1800.0, 5400.0], sched, seed=77)
    full, windows = gen_deployment(spec)
    for node in (None, "n0", "n1", "n2", "elsewhere"):
        for modality in (None, *Modality):
            picked, picked_windows = gen_deployment(spec, node=node, modality=modality)
            expect = [s for s in full
                      if node in (None, s.node_id) and modality in (None, s.modality)]
            assert picked_windows == windows
            assert [(s.node_id, s.modality, s.start_time, s.sample_interval) for s in picked] \
                == [(s.node_id, s.modality, s.start_time, s.sample_interval) for s in expect]
            assert all(np.array_equal(a.values, b.values) for a, b in zip(picked, expect))


def test_deployment_spec_validation():
    sched = [ScheduledEvent(EventWindow(0.0, 3600.0), 2.0)]
    with pytest.raises(ConfigError):
        DeploymentSpec(("a", "a"), (1.0, 1.0), (0.0, 0.0), tuple(sched), seed=1)
    with pytest.raises(ConfigError):
        DeploymentSpec(("a", "b"), (1.0,), (0.0, 0.0), tuple(sched), seed=1)
    with pytest.raises(ConfigError):
        DeploymentSpec(("a",), (-1.0,), (0.0,), tuple(sched), seed=1)


def test_make_event_schedule_structure():
    sched = make_event_schedule(30, 7, seed=2024)
    assert len(sched) == 7
    starts = [ev.window.start for ev in sched]
    assert starts == sorted(starts)
    for prev, cur in zip(sched, sched[1:]):
        assert prev.window.end <= cur.window.start  # disjoint
    for ev in sched:
        assert 7200.0 <= ev.window.duration <= 28800.0
        assert 2.0 <= ev.rain_mm <= 30.0
        assert 0.0 <= ev.window.start and ev.window.end <= 30 * DAY
    assert make_event_schedule(30, 7, seed=2024) == sched
    assert make_event_schedule(30, 0, seed=1) == ()


def test_make_event_schedule_span_offset_and_errors():
    sched = make_event_schedule(10, 3, seed=5, span_start_s=100 * DAY)
    for ev in sched:
        assert ev.window.start >= 100 * DAY
        assert ev.window.end <= 110 * DAY
    with pytest.raises(DataError):
        make_event_schedule(1, 10, seed=5)  # slots shorter than max duration


def mask_box_temperature(clean, profile, windows):
    """The per-event whole-grid mask code that index ranges replaced, applied
    to the event-free series `clean` (base plus noise)."""
    t = clean.times()
    occ = np.zeros_like(t)
    for window in windows:
        one = np.zeros_like(t)
        rising = (t >= window.start) & (t < window.end)
        one[rising] = (t[rising] - window.start) / window.duration
        if profile.recovery_s > 0:
            falling = (t >= window.end) & (t < window.end + profile.recovery_s)
            one[falling] = 1.0 - (t[falling] - window.end) / profile.recovery_s
        occ = np.maximum(occ, one)
    return clean.values - profile.event_depression_c * np.clip(occ, 0.0, 1.0)


def mask_soil_moisture(t, profile, schedule, seed, decay):
    """The mask code of the soil response: held over [start, end), decaying
    from the end on as `decay(amp, end, t[t >= end])` (amp itself at t = end)."""
    excess = np.zeros_like(t)
    for ev in schedule:
        amp = profile.spike_gain_vwc_per_mm * ev.rain_mm
        after = t >= ev.window.end
        active = (t >= ev.window.start) & ~after
        one = np.zeros_like(t)
        one[active] = amp
        if after.any():
            one[after] = decay(amp, ev.window.end, t[after])
        excess += one
    noise = np.random.default_rng(seed).normal(0.0, profile.baseline_noise_vwc, size=t.size)
    return np.clip(profile.baseline_vwc + excess + noise, 0.0, 1.0)


def np_exp_decay(tau):
    """The decay as it was generated before: np.exp per sample."""
    return lambda amp, end, t: amp * np.exp(-(t - end) / tau)


def ieee_decay(tau, interval):
    """The decay as the generator builds it: amp * exp((end - t_b) / tau) * r**k,
    r = exp(-interval / tau), from synth's own `_exp` and `_powers`."""
    r = synth._exp(-interval / tau)
    return lambda amp, end, t: (amp * synth._exp((end - t[0]) / tau)) * \
        synth._powers(r, t.size)


@st.composite
def synth_layouts(draw):
    """A grid with a zero, offset or epoch-sized start and unsorted, possibly
    overlapping events whose bounds sit on or between grid points, inside or
    partly outside the series."""
    start = draw(st.one_of(st.just(0.0), st.floats(-1e5, 1e5), st.floats(1.0e9, 2.0e9)))
    interval = draw(st.sampled_from([300.0, 600.0, 1800.0, 3600.0]))
    days = draw(st.integers(1, 2))
    span = days * DAY
    bound = st.one_of(
        st.integers(-20, int(span / interval) + 20).map(lambda k: start + k * interval),
        st.floats(-0.2 * span, 1.2 * span).map(lambda x: start + x))
    events = []
    for a, b, rain in draw(st.lists(st.tuples(bound, bound, st.floats(0.1, 50.0)),
                                    max_size=6)):
        if a != b:
            events.append(ScheduledEvent(EventWindow(min(a, b), max(a, b)), rain))
    span_s = st.one_of(st.just(0.0), st.sampled_from([interval, 4 * interval, 21600.0]),
                       st.floats(1.0, 1e5))
    recovery_s = draw(span_s)
    tau = draw(st.one_of(st.sampled_from([interval, 21600.0, 172800.0]), st.floats(1.0, 1e6)))
    return start, interval, days, events, recovery_s, tau


# Soil levels at and between the clamp edges: a baseline at 0, at 1 or
# between, noise none, mild or wide enough to clamp both ways, and a gain
# that is 0, the default or large enough (x 50 mm) to clamp at 1.
SOIL_LEVELS = st.tuples(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                        st.sampled_from([0.0, 0.003, 0.5]),
                        st.sampled_from([0.0, 0.015, 0.2]))


@settings(max_examples=300, deadline=None)
@given(layout=synth_layouts(), seed=st.integers(0, 3), levels=SOIL_LEVELS,
       box_noise=st.sampled_from([0.0, 0.3]))
def test_generators_match_the_mask_code(layout, seed, levels, box_noise):
    start, interval, days, events, recovery_s, tau = layout
    box = BoxTempProfile(noise_sigma_c=box_noise, recovery_s=recovery_s)
    windows = [ev.window for ev in events]
    s = gen_box_temperature(days, box, windows, interval, seed=seed, start_time=start)
    clean = gen_box_temperature(days, box, [], interval, seed=seed, start_time=start)
    assert np.array_equal(s.values, mask_box_temperature(clean, box, windows))

    check_soil_against_the_mask_code(layout, seed, levels)


def check_soil_against_the_mask_code(layout, seed, levels):
    start, interval, days, events, recovery_s, tau = layout
    baseline, noise, gain = levels
    soil = SoilMoistureProfile(baseline_vwc=baseline, baseline_noise_vwc=noise,
                               spike_gain_vwc_per_mm=gain, decay_tau_s=tau)
    s = gen_soil_moisture(days, soil, events, interval, seed=seed, start_time=start)
    t = s.times()
    assert np.array_equal(s.values, mask_soil_moisture(t, soil, events, seed,
                                                       ieee_decay(tau, interval)))
    # The per-sample np.exp form differs by the error of the powers and
    # exponentials, and by the rounding of the float grid t, which its
    # exponent carried and r**k does not: a time off by d shifts a value
    # k >= 1 samples past the end by at most amp * d / (e * (interval - d)).
    old = mask_soil_moisture(t, soil, events, seed, np_exp_decay(tau))
    d = 2 * np.spacing(abs(start) + t.size * interval)
    amps = sum(abs(gain * ev.rain_mm) for ev in events)
    assert np.max(np.abs(s.values - old)) <= amps * (1e-12 + d / (np.e * (interval - d)))


@pytest.mark.parametrize("chunk", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(layout=synth_layouts(), seed=st.integers(0, 3), levels=SOIL_LEVELS)
def test_soil_chunk_edges_match_the_mask_code(chunk, layout, seed, levels):
    """Chunks far shorter than the grids, so that chunk edges cut holds and
    tails, and fall on the sample where a tail starts or the series ends."""
    with mock.patch.object(synth, "_CHUNK", chunk):
        check_soil_against_the_mask_code(layout, seed, levels)


def per_event_soil_moisture(days, profile, events, interval, seed):
    """The soil values as generated before the tails were added chunk by
    chunk: one pass of each event's tail over the rest of the series."""
    n = synth.check_grid(days, interval)
    t = np.arange(n) * float(interval)
    lo, hi = event_ranges(t, [ev.window for ev in events])
    tau = profile.decay_tau_s
    powers = synth._powers(synth._exp(-float(interval) / tau), n)
    excess = np.zeros(n)
    for ev, a, b in zip(events, lo.tolist(), hi.tolist()):
        amp = profile.spike_gain_vwc_per_mm * ev.rain_mm
        if amp == 0.0:
            continue
        excess[a:b] += amp
        if b < n:
            excess[b:] += powers[:n - b] * (amp * synth._exp((ev.window.end - t[b]) / tau))
    excess += profile.baseline_vwc
    excess += np.random.default_rng(seed).normal(0.0, profile.baseline_noise_vwc, size=n)
    return np.clip(excess, 0.0, 1.0)


def test_soil_matches_the_per_event_loop_over_several_chunks():
    """A year at 180 s with 98 events, as the study sweep generates it,
    spans several chunks of the real size."""
    days, interval = 365, 180.0
    schedule = make_event_schedule(30, 8, [1, 2]) + \
        make_event_schedule(335, 90, [1, 3], span_start_s=30 * DAY)
    n = days * int(DAY / interval)
    assert n > 5 * synth._CHUNK
    profile = SoilMoistureProfile()
    got = gen_soil_moisture(days, profile, schedule, interval, seed=[1, 0]).values
    want = per_event_soil_moisture(days, profile, schedule, interval, [1, 0])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@settings(max_examples=2000, deadline=None)
@given(x=st.one_of(st.floats(-746.0, 0.0), st.floats(-746.0, -708.0), st.floats(-1e-3, 0.0),
                   st.sampled_from([-math.inf, -1e300, -746.0, -745.1332191019412,
                                    -708.3964185322641, -math.log(2) / 2, -2.0**-28,
                                    -5e-324, -0.0])))
def test_exp_is_within_one_ulp(x):
    """`synth._exp` against Decimal's exp, subnormal results and -inf included."""
    exact = Decimal(x).exp(Context(prec=40)) if x > -math.inf else Decimal(0)
    assert abs(Decimal(synth._exp(x)) - exact) <= Decimal(math.ulp(float(exact)))


@pytest.mark.parametrize("r, n", [(math.exp(-600 / 172800), 20_000), (math.exp(-1 / 3), 3_000),
                                  (0.999999, 5_000), (0.5, 2_100), (1e-5, 1_100),
                                  (5e-324, 10), (0.0, 10), (1.0, 3_000), (1 - 2**-53, 3_000)])
def test_powers_are_within_their_bound(r, n):
    """`synth._powers` against exact powers: within 2 * (block + n / block)
    ulp, subnormal powers included."""
    powers = synth._powers(r, n)
    assert powers.shape == (n,) and powers[0] == 1.0
    if n > synth._BLOCK:  # the blocks' scale is r**_BLOCK, rounded once
        assert powers[synth._BLOCK] == float(Fraction(r) ** synth._BLOCK)
    bound = Decimal(2 * (synth._BLOCK + n / synth._BLOCK))
    ctx, exact, step = Context(prec=40), Decimal(1), Decimal(r)
    for k, got in enumerate(powers.tolist()):
        assert abs(Decimal(got) - exact) <= bound * Decimal(math.ulp(float(exact))), k
        exact = ctx.multiply(exact, step)


@pytest.mark.parametrize("channel", ["soil", "box"])
def test_generators_peak_at_about_three_series_lengths(channel):
    """Each generator builds its values in place, so no more than three arrays
    of the grid's length are alive at once (the expression form held five for
    soil and seven for box). Soil holds two and one chunk of tail: the
    excess, the powers and the tail buffer, then the excess and the noise."""
    if channel == "soil":
        days, interval = 10, 5.0  # 172,800 samples, over five chunks
        schedule = make_event_schedule(days, 20, seed=3)
        generate = lambda: gen_soil_moisture(days, SoilMoistureProfile(), schedule, interval)
    else:
        days, interval = 10, 20.0  # 43,200 samples
        windows = [ev.window for ev in make_event_schedule(days, 20, seed=3)]
        generate = lambda: gen_box_temperature(days, BoxTempProfile(), windows, interval)
    n = days * int(DAY / interval)
    tracemalloc.start()
    try:
        assert len(generate()) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if channel == "soil":  # slack for the last block of the powers and the event lists
        assert n > 5 * synth._CHUNK
        assert peak <= (2 * n + synth._CHUNK) * 8 + 16384
    else:
        assert peak <= 3.5 * n * 8
