"""Domain type validation: series placement, event windows, fault labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultlab import (
    DataError,
    DetectionResult,
    EventWindow,
    GroundTruthLabels,
    Modality,
    PrecipRecord,
    Series,
    validate_events,
)
from faultlab.io import ingest_csv, write_series_csv
from faultlab.series import index_array


def mk(values, interval=600.0, start=0.0, node="n1", modality=Modality.SOIL_MOISTURE):
    return Series(node, modality, start, interval, np.asarray(values, dtype=float))


def test_series_basic_placement():
    s = mk([0.1, 0.2, 0.3], interval=600.0, start=1000.0)
    assert len(s) == 3
    assert s.time_at(0) == 1000.0
    assert s.time_at(2) == 2200.0
    assert np.array_equal(s.times(), [1000.0, 1600.0, 2200.0])


def test_series_modality_accepts_strings():
    s = Series("n1", "box_temp", 0.0, 600.0, np.zeros(2))
    assert s.modality is Modality.BOX_TEMP
    assert s.modality.value == "box_temp"
    with pytest.raises(DataError):
        Series("n1", "humidity", 0.0, 600.0, np.zeros(2))


def test_series_values_are_read_only_copies():
    src = np.array([1.0, 2.0, 3.0])
    s = mk(src)
    src[0] = 99.0
    assert s.values[0] == 1.0
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_series_rejects_bad_inputs():
    with pytest.raises(DataError):
        mk([1.0, np.nan])
    with pytest.raises(DataError):
        mk([1.0, np.inf])
    with pytest.raises(DataError):
        mk([1.0, 2.0], interval=0.0)
    with pytest.raises(DataError):
        mk([1.0, 2.0], interval=-5.0)
    with pytest.raises(DataError):
        Series("n1", Modality.BOX_TEMP, 0.0, 600.0, np.zeros((2, 2)))


def test_series_rejects_a_grid_without_finite_times(tmp_path):
    inf, nan = math.inf, math.nan
    for start, interval in ((inf, 600.0), (-inf, 600.0), (nan, 600.0), (0.0, inf)):
        with pytest.raises(DataError, match="finite"):
            mk([1.0, 2.0], interval=interval, start=start)
    with pytest.raises(DataError, match="not a finite time"):
        mk([1.0, 2.0], interval=1e308, start=1e308)
    # A lone sample sits at the finite start; an empty series has no time to check.
    assert len(mk([1.0], interval=1e308, start=1e308)) == 1
    assert len(mk([], interval=1e308, start=1e308)) == 0
    # So every series the writer gets has finite stamps, which ingest reads.
    s = mk([1.0, 2.0], interval=1e307, start=1e308)
    write_series_csv(tmp_path / "s.csv", [s])
    back = ingest_csv(tmp_path / "s.csv").series[0]
    assert back.start_time == s.start_time and np.array_equal(back.values, s.values)


def test_value_types_refuse_ints_past_the_float_range():
    # math.isfinite raises OverflowError on these, not DataError; and the
    # error text shows them in a few characters, not all of their digits
    # (10**5000 is past the digits Python converts to a string at all).
    for big in (10**400, -10**400, 10**5000):
        for start, interval in ((big, 600.0), (0.0, big)):
            with pytest.raises(DataError) as err:
                mk([1.0], interval=interval, start=start)
            assert len(str(err.value)) <= 100
        for make in (lambda: EventWindow(big, 2 * abs(big)), lambda: EventWindow(-abs(big), big),
                     lambda: PrecipRecord(big, 1.0), lambda: PrecipRecord(0.0, big)):
            with pytest.raises(DataError) as err:
                make()
            assert len(str(err.value)) <= 100
    with pytest.raises(DataError, match=r"got 1.000000e\+400 and 600.0$"):
        mk([1.0], start=10**400)
    with pytest.raises(DataError, match=r"got -1.000000e\+400$"):
        PrecipRecord(0.0, -10**400)
    with pytest.raises(DataError, match=r"at time 2.000000e\+308, not a finite time"):
        mk([1.0, 2.0], interval=10**308, start=10**308)
    with pytest.raises(DataError, match=r"got \[1.000000e\+300, 1.000000e\+200\)"):
        EventWindow(10**300, 10**200)


def test_with_values_and_same_grid():
    a = mk([1.0, 2.0, 3.0])
    b = a.with_values([4.0, 5.0, 6.0])
    assert a.same_grid(b)
    assert b.node_id == a.node_id and b.start_time == a.start_time
    c = mk([1.0, 2.0, 3.0], start=600.0)
    assert not a.same_grid(c)
    assert not a.same_grid(mk([1.0, 2.0]))


def test_subseries_shifts_start():
    s = mk([10.0, 11.0, 12.0, 13.0], interval=600.0, start=0.0)
    t = s.subseries(1, 3)
    assert t.start_time == 600.0
    assert np.array_equal(t.values, [11.0, 12.0])
    with pytest.raises(DataError):
        s.subseries(2, 2)
    with pytest.raises(DataError):
        s.subseries(0, 5)


def test_event_window_validation():
    w = EventWindow(100.0, 400.0)
    assert w.duration == 300.0
    with pytest.raises(DataError):
        EventWindow(400.0, 400.0)
    with pytest.raises(DataError):
        EventWindow(500.0, 400.0)
    with pytest.raises(DataError):
        EventWindow(float("nan"), 400.0)


def test_validate_events_requires_sorted_disjoint():
    validate_events([EventWindow(0, 10), EventWindow(10, 20), EventWindow(25, 30)])
    with pytest.raises(DataError):
        validate_events([EventWindow(0, 10), EventWindow(5, 20)])
    with pytest.raises(DataError):
        validate_events([EventWindow(10, 20), EventWindow(0, 5)])


def test_precip_record_validation():
    PrecipRecord(900.0, 0.0)
    with pytest.raises(DataError):
        PrecipRecord(900.0, -0.1)
    with pytest.raises(DataError):
        PrecipRecord(float("inf"), 1.0)


def test_labels_normalize_and_validate():
    lab = GroundTruthLabels(short_indices=(5, 2, 9), noise_windows=((10, 3), (2, 4)))
    assert lab.short_indices.dtype == np.int64
    assert lab.short_indices.tolist() == [2, 5, 9]
    assert not lab.short_indices.flags.writeable
    assert lab.noise_windows == ((2, 4), (10, 3))
    assert all(type(x) is int for w in lab.noise_windows for x in w)
    assert GroundTruthLabels().short_indices.tolist() == []
    with pytest.raises(DataError, match="distinct"):
        GroundTruthLabels(short_indices=(1, 1))
    with pytest.raises(DataError, match=">= 0"):
        GroundTruthLabels(short_indices=(-1,))
    with pytest.raises(DataError):
        GroundTruthLabels(noise_windows=((0, 5), (4, 2)))
    with pytest.raises(DataError):
        GroundTruthLabels(noise_windows=((0, 0),))


def test_labels_check_bounds():
    lab = GroundTruthLabels(short_indices=(7,), noise_windows=((2, 4),))
    lab.check_bounds(8)
    with pytest.raises(DataError):
        lab.check_bounds(7)
    with pytest.raises(DataError):
        GroundTruthLabels(noise_windows=((5, 4),)).check_bounds(8)


def test_bad_indices_raise_data_error():
    for raw in ([2**64], [1.5, 2.7], np.array([2**63 + 5], np.uint64), [math.nan, 3.0]):
        with pytest.raises(DataError, match="int64"):
            GroundTruthLabels(short_indices=raw)
        with pytest.raises(DataError, match="int64"):
            DetectionResult("short", raw)


def edges(at):
    return st.integers(at - 3, at + 3)


INT_ENTRIES = st.one_of(edges(2**63), edges(-2**63), edges(2**64), st.integers(-50, 50))
FLOAT_ENTRIES = st.one_of(
    st.floats(), st.integers(-50, 50).map(float),
    st.sampled_from([2.0**63, -2.0**63, 2.0**63 - 1024, 2.0**64, -0.0, 0.5, 1e300]))
UINT64_ARRAYS = st.lists(st.one_of(edges(2**63), st.integers(0, 50), edges(2**64 - 4))).map(
    lambda xs: np.array(xs, np.uint64))


def expected_indices(values):
    """Sorted distinct ints of `values`, or None when one is no int64."""
    out = set()
    for v in values:
        if isinstance(v, float) and not v.is_integer():  # also NaN and inf
            return None
        if not -2**63 <= int(v) < 2**63:
            return None
        out.add(int(v))
    return sorted(out)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.lists(INT_ENTRIES), st.lists(FLOAT_ENTRIES), UINT64_ARRAYS))
def test_index_array_takes_exactly_the_int64_integers(raw):
    want = expected_indices(raw.tolist() if isinstance(raw, np.ndarray) else raw)
    if want is None:
        with pytest.raises(DataError):
            index_array(raw)
    else:
        idx = index_array(raw)
        assert idx.dtype == np.int64 and not idx.flags.writeable
        assert idx.tolist() == want
