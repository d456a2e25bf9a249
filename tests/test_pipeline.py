"""Config-driven runs: deployment assembly, train/test split, sweep scoring."""

import numpy as np
import pytest

from faultlab import ConfigError, DataError, DetectionResult, EventWindow, Modality, Series
from faultlab.detect import (NoiseModel, ShortParams, noise_detect, short_detect, short_jumps,
                             window_stds)
from faultlab.io import write_events_csv, write_json, write_series_csv
from faultlab.metrics import assemble_report, event_sample_ranges
from faultlab.pipeline import (
    SWEEP_HEADER,
    build_synth_config,
    materialize,
    run_sweep_points,
    split_series,
    sweep_rows,
)

DAY = 86400.0


def synth_block(**over):
    cfg = {"train_days": 1, "test_days": 2, "n_events": 2, "train_events": 1,
           "interval_s": 600.0, "nodes": [{"id": "node1"}]}
    cfg.update(over)
    return cfg


def test_build_synth_config_places_events_around_the_split():
    series, test_windows, schedule, train_days = build_synth_config(synth_block(), seed=5)
    assert train_days == 1
    assert len(series) == 2  # soil + box for one node
    assert len(schedule) == 3
    assert len(test_windows) == 2
    train_evs = [ev for ev in schedule if ev.window.end <= DAY]
    assert len(train_evs) == 1
    for w in test_windows:
        assert w.start >= DAY and w.end <= 3 * DAY
    # deterministic given (config, seed)
    series2, tw2, _, _ = build_synth_config(synth_block(), seed=5)
    assert tw2 == test_windows
    assert all(np.array_equal(a.values, b.values) for a, b in zip(series, series2))


def test_split_series_boundary():
    s = Series("n", Modality.BOX_TEMP, 0.0, 600.0, np.arange(10.0))
    train, test = split_series(s, 3000.0)
    assert len(train) == 5 and len(test) == 5
    assert test.start_time == 3000.0
    with pytest.raises(DataError):
        split_series(s, 0.0)
    with pytest.raises(DataError):
        split_series(s, 600.0 * 10)


def test_materialize_synth_short():
    cfg = {"detector": "short", "synth": synth_block(),
           "inject": {"kind": "short", "short_intensity": 0.5}}
    run = materialize(cfg, seed=7, modality=Modality.SOIL_MOISTURE)
    # smoothing halves the grid: 1 train day -> 72 samples at 1200 s
    assert len(run.train) == 72 and run.train.sample_interval == 1200.0
    assert len(run.test) == 144
    assert run.test.start_time == DAY
    assert run.noise_model is None
    assert run.labels is not None and len(run.labels.short_indices) == round(0.015 * 144)
    assert run.plan is not None and run.plan.seed == 7
    assert all(w.start >= DAY for w in run.events)


def test_materialize_synth_noise_uses_trained_sigma():
    cfg = {"detector": "noise", "synth": synth_block(train_days=2, test_days=3, n_events=2),
           "inject": {"kind": "noise", "noise_burst_lengths": [12, 24],
                      "noise_multiplier": 1.5}}
    run = materialize(cfg, seed=11, modality=Modality.BOX_TEMP)
    assert run.noise_model is not None and run.noise_model.window_len == 18
    assert run.noise_model.sigma_train > 0
    assert run.labels is not None and run.labels.noise_windows
    budget = round(0.065 * len(run.test))
    total = sum(ln for _, ln in run.labels.noise_windows)
    assert budget - 24 + 1 <= total <= budget


def test_materialize_smooth_toggle_and_no_injection():
    cfg = {"detector": "short", "synth": synth_block(), "smooth": False}
    run = materialize(cfg, seed=3, modality=Modality.BOX_TEMP)
    assert run.train.sample_interval == 600.0
    assert len(run.train) == 144
    assert run.labels is None and run.plan is None


def test_materialize_config_validation():
    with pytest.raises(ConfigError, match="exactly one"):
        materialize({"detector": "short"}, 1, Modality.BOX_TEMP)
    with pytest.raises(ConfigError, match="exactly one"):
        materialize({"synth": synth_block(), "data": {}, "detector": "short"},
                    1, Modality.BOX_TEMP)
    with pytest.raises(ConfigError, match="train_days"):
        materialize({"detector": "short", "synth": synth_block(train_days=0)},
                    1, Modality.BOX_TEMP)
    with pytest.raises(ConfigError, match="kind"):
        materialize({"detector": "short", "synth": synth_block(),
                     "inject": {"kind": "drift"}}, 1, Modality.BOX_TEMP)


def test_materialize_data_mode(tmp_path):
    rng = np.random.default_rng(13)
    train = Series("n9", Modality.BOX_TEMP, 0.0, 600.0, rng.normal(25, 2, size=288))
    test = Series("n9", Modality.BOX_TEMP, 288 * 600.0, 600.0, rng.normal(25, 2, size=288))
    write_series_csv(tmp_path / "train.csv", [train])
    write_series_csv(tmp_path / "test.csv", [test])
    write_events_csv(tmp_path / "events.csv", [])
    cfg = {"detector": "short", "smooth": False,
           "data": {"node_id": "n9",
                    "train_csv": str(tmp_path / "train.csv"),
                    "test_csv": str(tmp_path / "test.csv"),
                    "events_csv": str(tmp_path / "events.csv")}}
    run = materialize(cfg, seed=1, modality=Modality.BOX_TEMP)
    assert np.allclose(run.train.values, train.values)
    assert np.allclose(run.test.values, test.values)
    assert run.events == []

    missing = {"detector": "short", "data": {"node_id": "n9"}}
    with pytest.raises(ConfigError):
        materialize(missing, 1, Modality.BOX_TEMP)


def test_run_sweep_points_short_monotone():
    cfg = {"detector": "short", "grid": [0.002, 0.005, 0.01, 0.05],
           "synth": synth_block(),
           "inject": {"kind": "short", "short_intensity": 0.2}}
    out = run_sweep_points(cfg, seed=19, modality=Modality.SOIL_MOISTURE)
    assert [rep.parameters["param"] for rep in out.points] == [0.002, 0.005, 0.01, 0.05]
    mus = [rep.mu for rep in out.points]
    fns = [rep.false_negative_ratio for rep in out.points]
    assert all(b <= a for a, b in zip(mus, mus[1:]))  # mu non-increasing in delta
    assert all(b >= a for a, b in zip(fns, fns[1:]))  # misses non-decreasing
    for rep in out.points:
        assert rep.parameters["detector"] == "short"
        assert rep.parameters["modality"] == "soil_moisture"


def test_sweep_generates_only_its_target_series(monkeypatch):
    import faultlab.synth as synth

    generated = []
    for name in ("gen_soil_moisture", "gen_box_temperature"):
        def counting(*args, _gen=getattr(synth, name), **kwargs):
            out = _gen(*args, **kwargs)
            generated.append((out.node_id, out.modality))
            return out
        monkeypatch.setattr(synth, name, counting)
    nodes = [{"id": "a"}, {"id": "b", "lag_s": 600.0}, {"id": "c", "response_scale": 0.5}]
    cfg = {"detector": "short", "grid": [0.5], "synth": synth_block(nodes=nodes, target="b")}
    run_sweep_points(cfg, seed=3, modality=Modality.SOIL_MOISTURE)
    assert generated == [("b", Modality.SOIL_MOISTURE)]
    cfg["synth"]["target"] = "zz"
    with pytest.raises(DataError, match="^synth: no series for node 'zz' modality 'box_temp'$"):
        run_sweep_points(cfg, seed=3, modality=Modality.BOX_TEMP)


def test_run_sweep_points_validation():
    with pytest.raises(ConfigError, match="detector"):
        run_sweep_points({"detector": "llse", "grid": [1], "synth": synth_block()},
                         1, Modality.BOX_TEMP)
    with pytest.raises(ConfigError, match="grid"):
        run_sweep_points({"detector": "short", "synth": synth_block()},
                         1, Modality.BOX_TEMP)
    with pytest.raises(ConfigError, match="grid"):
        run_sweep_points({"detector": "short", "grid": [], "synth": synth_block()},
                         1, Modality.BOX_TEMP)


def test_sweep_rows_formatting():
    cfg = {"detector": "short", "grid": [0.01], "synth": synth_block()}
    out = run_sweep_points(cfg, seed=23, modality=Modality.SOIL_MOISTURE)
    rows = sweep_rows(out)
    assert SWEEP_HEADER == ("param", "mu", "mu_first_half_hour", "fn_ratio")
    assert len(rows) == 1
    param, mu, fhh, fn = rows[0]
    assert param == "0.01"
    assert float(mu) == out.points[0].mu
    assert fn == ""  # no injection: the miss ratio has no denominator


def data_sweep_config(tmp_path, detector, labels):
    """A data sweep on a 301-sample test file (not a whole number of 18-sample
    noise windows) with spikes, a noise burst and event windows out of order."""
    rng = np.random.default_rng(29)
    train = Series("n9", Modality.BOX_TEMP, 0.0, 600.0, rng.normal(25, 0.5, size=288))
    values = rng.normal(25, 0.5, size=301)
    values[[40, 90, 200]] += 6.0
    values[150:186] += rng.normal(0, 3, size=36)
    test = Series("n9", Modality.BOX_TEMP, 288 * 600.0, 600.0, values)
    write_series_csv(tmp_path / "train.csv", [train])
    write_series_csv(tmp_path / "test.csv", [test])
    write_events_csv(tmp_path / "events.csv", [EventWindow(test.time_at(a), test.time_at(b))
                                               for a, b in [(100, 130), (20, 60), (180, 300)]])
    data = {"node_id": "n9", "train_csv": str(tmp_path / "train.csv"),
            "test_csv": str(tmp_path / "test.csv"), "events_csv": str(tmp_path / "events.csv")}
    if labels:
        write_json(tmp_path / "labels.json", {"short": [40, 90, 200],
                                              "noise": [{"start": 150, "len": 36}]})
        data["labels_json"] = str(tmp_path / "labels.json")
    return {"detector": detector, "smooth": False, "data": data}


@pytest.mark.parametrize("detector", ["short", "noise"])
@pytest.mark.parametrize("source", ["data", "data with labels", "synth with injection"])
def test_sweep_points_match_reports_computed_from_scratch(tmp_path, detector, source):
    if source == "synth with injection":
        cfg = {"detector": detector, "synth": synth_block(train_days=2, test_days=3),
               "inject": {"kind": detector, "short_intensity": 0.2, "base_sigma": 0.05,
                          "noise_burst_lengths": [12, 24]}}
    else:
        cfg = data_sweep_config(tmp_path, detector, labels=source == "data with labels")
    cfg["grid"] = [0.001, 0.01, 0.5, 3.0] if detector == "short" else [0.0, 0.5, 2.0, 5.0]
    modality = Modality.SOIL_MOISTURE if "synth" in cfg else Modality.BOX_TEMP
    out = run_sweep_points(cfg, seed=17, modality=modality)

    run = materialize(cfg, seed=17, modality=modality)
    assert (run.labels is not None) == (source != "data")
    for param, rep in zip(cfg["grid"], out.points, strict=True):
        if detector == "short":
            result = short_detect(run.test, ShortParams(param))
        else:
            result = noise_detect(run.test, run.noise_model, param)
        expected = assemble_report(
            run.test, result, run.events, truth=run.labels,
            kind=detector if run.labels is not None else None,
            parameters={"detector": detector, "param": param,
                        "seed": 17, "modality": modality.value})
        assert rep == expected
    assert len({rep.mu for rep in out.points}) > 1  # the grid reaches both sides


def test_precomputed_arrays_that_do_not_fit_the_series_raise():
    s = Series("n1", Modality.BOX_TEMP, 0.0, 600.0,
               np.random.default_rng(3).normal(25, 1, size=301))
    jumps, stds = short_jumps(s), window_stds(s, 18)
    for bad in (jumps[1:], jumps[:, None], short_jumps(s.subseries(0, 300))):
        with pytest.raises(DataError, match="^jumps of shape"):
            short_detect(s, ShortParams(1.0), jumps=bad)
    model = NoiseModel(18, 1.0, 0.2)
    for bad in (stds[1:], stds[:, None], window_stds(s, 17)):
        with pytest.raises(DataError, match="^window stds of shape"):
            noise_detect(s, model, 1.0, stds=bad)
    events = [EventWindow(6000.0, 12000.0), EventWindow(60000.0, 72000.0)]
    ranges = event_sample_ranges(s, events)
    for bad in (ranges[:, 1:], ranges[:2], ranges.T, ranges + len(s), ranges - 21):
        with pytest.raises(DataError, match="^event ranges of shape"):
            assemble_report(s, DetectionResult("short"), events, ranges=bad)
    assert assemble_report(s, DetectionResult("short", [25]), events, ranges=ranges) == \
        assemble_report(s, DetectionResult("short", [25]), events)
