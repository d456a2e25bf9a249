"""Rain-event extraction from gauge records and event sample membership."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultlab import (
    DataError,
    EventWindow,
    Modality,
    PrecipRecord,
    Series,
    event_ranges,
    event_sample_indices,
    events_from_precipitation,
    first_half_hour_indices,
    per_event_indices,
    validate_events,
)


def gauge(amounts, dt=900.0, t0=900.0):
    """Records every dt seconds; record k at t0 + k*dt covers the preceding dt."""
    return [PrecipRecord(t0 + k * dt, a) for k, a in enumerate(amounts)]


def spans(events):
    return [(w.start, w.end) for w in events]


def test_run_extraction_no_gap_merging():
    recs = gauge([0, 2, 3, 0, 0, 1, 0])
    out = events_from_precipitation(recs, min_total_mm=0.0, gap_tolerance_s=0.0)
    assert spans(out) == [(900.0, 2700.0), (4500.0, 5400.0)]


def test_gap_tolerance_merges_runs():
    recs = gauge([0, 2, 3, 0, 0, 1, 0])
    out = events_from_precipitation(recs, min_total_mm=0.0, gap_tolerance_s=1800.0)
    assert spans(out) == [(900.0, 5400.0)]


def test_all_dry_and_empty_inputs():
    assert events_from_precipitation(gauge([0, 0, 0, 0])) == []
    assert events_from_precipitation([]) == []


def test_min_total_filters_small_runs():
    recs = gauge([0, 2, 3, 0, 0, 1, 0])
    out = events_from_precipitation(recs, min_total_mm=2.0, gap_tolerance_s=0.0)
    assert spans(out) == [(900.0, 2700.0)]  # the 1 mm run is dropped
    kept = events_from_precipitation(recs, min_total_mm=1.0, gap_tolerance_s=0.0)
    assert len(kept) == 2


def test_merged_total_counts_toward_min_total():
    # 0.6 mm + 0.6 mm merge across one dry record and pass min_total 1.0
    recs = gauge([0.6, 0, 0.6])
    out = events_from_precipitation(recs, min_total_mm=1.0, gap_tolerance_s=900.0)
    assert spans(out) == [(0.0, 2700.0)]
    assert events_from_precipitation(recs, min_total_mm=1.0, gap_tolerance_s=0.0) == []


def test_single_wet_record_window_spans_its_interval():
    out = events_from_precipitation([PrecipRecord(3600.0, 5.0)], min_total_mm=0.0)
    # interval unknown from one record: 900 s gauge cadence assumed
    assert spans(out) == [(2700.0, 3600.0)]


def test_records_must_be_sorted():
    recs = [PrecipRecord(1800.0, 1.0), PrecipRecord(900.0, 1.0)]
    with pytest.raises(DataError):
        events_from_precipitation(recs)


def test_window_properties_random_gauges():
    rng = np.random.default_rng(3)
    for _ in range(60):
        n = int(rng.integers(2, 120))
        amounts = np.where(rng.random(n) < 0.3, rng.exponential(2.0, n), 0.0)
        gap = float(rng.choice([0.0, 900.0, 1800.0, 3600.0]))
        min_total = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        out = events_from_precipitation(gauge(amounts), min_total_mm=min_total,
                                        gap_tolerance_s=gap)
        validate_events(out)  # sorted, disjoint
        wet_times = {900.0 + 900.0 * k for k, a in enumerate(amounts) if a > 0}
        for w in out:
            assert w.duration >= 900.0
            # each window contains at least one wet record
            assert any(w.start < t <= w.end for t in wet_times)


def series_at(interval, n, start=0.0):
    return Series("n1", Modality.BOX_TEMP, start, interval, np.zeros(n))


def test_event_sample_indices_half_open():
    s = series_at(1200.0, 10)
    idx = event_sample_indices(s, [EventWindow(1200.0, 4800.0)])
    assert idx.tolist() == [1, 2, 3]
    assert event_sample_indices(s, [EventWindow(-5000.0, -100.0)]).tolist() == []
    assert event_sample_indices(s, []).tolist() == []


def test_event_sample_indices_union_and_monotonicity():
    s = series_at(600.0, 50)
    a = [EventWindow(0.0, 1800.0)]
    b = a + [EventWindow(6000.0, 7200.0)]
    ia = set(event_sample_indices(s, a).tolist())
    ib = set(event_sample_indices(s, b).tolist())
    assert ia <= ib  # adding an event never removes indices
    per = per_event_indices(s, b)
    assert sorted(np.concatenate(per).tolist()) == sorted(ib)


def test_first_half_hour_variant():
    s = series_at(1200.0, 10)
    per = first_half_hour_indices(s, [EventWindow(0.0, 7200.0)])
    assert [p.tolist() for p in per] == [[0, 1]]
    # short event: opening window truncated at the event end
    per2 = first_half_hour_indices(s, [EventWindow(0.0, 1200.0)])
    assert [p.tolist() for p in per2] == [[0]]


def mask_scan(s, events, opening_s=None):
    """The per-window mask scan that `event_ranges` replaces: start <= t < end."""
    t = s.times()
    out = []
    for ev in events:
        end = ev.end if opening_s is None else min(ev.end, ev.start + opening_s)
        out.append(np.nonzero((t >= ev.start) & (t < end))[0])
    return out


@st.composite
def series_and_windows(draw):
    """A series with a small or epoch-sized start and sorted disjoint windows
    whose bounds sit on, one ulp beside, or between grid points, inside or
    outside the series."""
    start = draw(st.one_of(st.floats(-1e6, 1e6), st.floats(1.0e9, 2.0e9)))
    interval = draw(st.one_of(st.sampled_from([1.0, 60.0, 600.0, 1800.0]),
                              st.floats(0.1, 5000.0)))
    n = draw(st.integers(0, 200))
    bounds = set()
    for k, ulps, frac in draw(st.lists(st.tuples(st.integers(-30, 230),
                                                 st.sampled_from([-1, 0, 1]),
                                                 st.sampled_from([0.0, 0.25, 0.5])),
                                       max_size=12)):
        x = start + k * interval + frac * interval
        bounds.add(float(np.nextafter(x, ulps * np.inf)) if ulps else x)
    bounds = sorted(bounds)
    events = [EventWindow(a, b) for a, b in zip(bounds[::2], bounds[1::2])]
    return Series("n1", Modality.BOX_TEMP, start, interval, np.zeros(n)), events


@settings(max_examples=300, deadline=None)
@given(layout=series_and_windows(), opening_s=st.one_of(st.just(1800.0), st.floats(0.0, 1e5)))
def test_event_ranges_match_the_mask_scan(layout, opening_s):
    s, events = layout
    for cut, per in ((None, per_event_indices(s, events)),
                     (opening_s, first_half_hour_indices(s, events, opening_s))):
        expected = mask_scan(s, events, cut)
        lo, hi = event_ranges(s, events, cut)
        assert [np.arange(a, b).tolist() for a, b in zip(lo, hi)] == \
            [idx.tolist() for idx in expected]
        assert [idx.tolist() for idx in per] == [idx.tolist() for idx in expected]
    union = np.zeros(len(s), dtype=bool)
    for idx in mask_scan(s, events):
        union[idx] = True
    assert event_sample_indices(s, events).tolist() == np.nonzero(union)[0].tolist()
