"""Domain type validation: series placement, event windows, fault labels."""

import numpy as np
import pytest

from faultlab import (
    DataError,
    EventWindow,
    GroundTruthLabels,
    Modality,
    PrecipRecord,
    Series,
    validate_events,
)


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
