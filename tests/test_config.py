"""The config boundary: values of the wrong type exit 2, never with a traceback."""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from faultlab import ConfigError, Modality
from faultlab.cli import main
from faultlab.config import boolean, injection_plan, json_numbers, modality_of, number, seed_of

BASE = {
    "seed": 3,
    "modality": "soil_moisture",
    "synth": {"train_days": 1, "test_days": 2, "n_events": 1, "train_events": 1,
              "interval_s": 1800,
              "nodes": [{"id": "n1"}, {"id": "n2", "response_scale": 0.5, "lag_s": 1800},
                        {"id": "n3"}],
              "box": {"mean_c": 20.0}, "soil": {"decay_tau_s": 86400.0},
              "schedule": {"min_duration_s": 1800, "max_duration_s": 3600,
                           "max_rain_mm": 20},
              "target": "n1"},
    "inject": {"kind": "both", "short_intensity": 0.2, "short_fraction": 0.1,
               "noise_multiplier": 2.0, "noise_burst_lengths": [4],
               "noise_total_fraction": 0.2, "base_sigma": 0.01},
    "detector": "short",
    "grid": [0.01, 0.1],
    "delta": 0.01,
    "multiplier": 2.0,
    "llse": {"percentile_p": 95, "vote_q": 2, "signed": False},
    "noise_window_len": 4,
    "smooth": True,
}

SYNTH_KEYS = [
    ("synth",), ("synth", "train_days"), ("synth", "test_days"), ("synth", "n_events"),
    ("synth", "train_events"), ("synth", "interval_s"), ("synth", "nodes"),
    ("synth", "nodes", 1, "id"), ("synth", "nodes", 1, "response_scale"),
    ("synth", "nodes", 1, "lag_s"), ("synth", "box"), ("synth", "box", "mean_c"),
    ("synth", "soil"), ("synth", "soil", "decay_tau_s"), ("synth", "schedule"),
    ("synth", "schedule", "max_rain_mm"), ("synth", "target"),
]
INJECT_KEYS = [
    ("inject",), ("inject", "kind"), ("inject", "short_intensity"),
    ("inject", "short_fraction"), ("inject", "noise_multiplier"),
    ("inject", "noise_burst_lengths"), ("inject", "noise_total_fraction"),
    ("inject", "base_sigma"),
]
LLSE_KEYS = [("llse",), ("llse", "percentile_p"), ("llse", "vote_q"), ("llse", "signed")]

# The keys of the README "Config keys" table each command reads, as paths
# into BASE; together they cover the whole table.
READS = {
    "synth": [("seed",), ("modality",), *SYNTH_KEYS],
    "sweep": [("seed",), ("modality",), *SYNTH_KEYS, *INJECT_KEYS, ("detector",),
              ("grid",), ("noise_window_len",), ("smooth",)],
    "inject": [("seed",), ("modality",), *INJECT_KEYS],
    "train short": [("delta",)],
    "train noise": [("modality",), ("noise_window_len",)],
    "train llse": [("modality",), *LLSE_KEYS],
    "detect short": [("modality",), ("delta",)],
    "detect noise": [("modality",), ("multiplier",)],
    "detect llse": [("modality",)],
    "evaluate": [("modality",)],
}

SCALARS = st.one_of(st.integers(-3, 3), st.text(max_size=2), st.none())
HOSTILE = st.one_of(st.text(max_size=3), st.lists(SCALARS, max_size=3),
                    st.dictionaries(st.text(max_size=3), SCALARS, max_size=2),
                    st.none(), st.booleans())


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    """Inputs every command can read, made from BASE by the CLI itself."""
    d = tmp_path_factory.mktemp("site")
    cfg = d / "base.json"
    cfg.write_text(json.dumps(BASE))
    series, c = str(d / "series.csv"), ["--config", str(cfg)]
    node = ["--in", series, "--node", "n1"]
    for argv in (["synth", "--out", str(d)],
                 ["inject", *node, "--out", str(d)],
                 ["train", "--detector", "noise", *node, "--out", str(d / "noise")],
                 ["train", "--detector", "llse", "--in", series, "--target", "n1",
                  "--out", str(d / "llse")],
                 ["detect", "--detector", "short", *node, "--out", str(d)]):
        assert run([*argv, *c]) == (0, "")
    return {
        "synth": ["synth"],
        "sweep": ["sweep"],
        "inject": ["inject", *node],
        "train short": ["train", "--detector", "short"],
        "train noise": ["train", "--detector", "noise", *node],
        "train llse": ["train", "--detector", "llse", "--in", series, "--target", "n1"],
        "detect short": ["detect", "--detector", "short", *node],
        "detect noise": ["detect", "--detector", "noise", *node,
                         "--model", str(d / "noise" / "model.json")],
        "detect llse": ["detect", "--detector", "llse", "--in", series,
                        "--model", str(d / "llse" / "model.json")],
        "evaluate": ["evaluate", *node, "--flags", str(d / "flags.csv"),
                     "--events", str(d / "events.csv"),
                     "--labels", str(d / "faulted.labels.json"), "--fault-kind", "short"],
    }, d


def put(cfg, path, value):
    *head, last = path
    for key in head:
        cfg = cfg[key]
    cfg[last] = value


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_type_confused_config_never_escapes(site, data):
    commands, d = site
    command = data.draw(st.sampled_from(sorted(READS)))
    changes = data.draw(st.lists(st.tuples(st.sampled_from(READS[command]), HOSTILE),
                                 min_size=1, max_size=3))
    cfg = copy.deepcopy(BASE)
    # Deeper keys first, so a later change may replace their parent.
    for path, value in sorted(changes, key=lambda c: -len(c[0])):
        put(cfg, path, value)
    path = d / "hostile.json"
    path.write_text(json.dumps(cfg))
    rc, err = run([*commands[command], "--config", str(path), "--out", str(d / "out")])
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.startswith(("config error:", "data error:", "numeric error:"))
        assert len(err.splitlines()) == 1


def test_seed_must_be_a_plain_integer():
    assert seed_of({"seed": 7}) == 7
    for bad in (True, False, -1, 1.0, "1", None):
        with pytest.raises(ConfigError):
            seed_of({"seed": bad})


def test_number_keeps_int_and_float_conversions():
    assert number("30", "x", int) == 30
    assert number(1.5, "x", int) == 1
    for bad in ("x", None, [], {}, float("inf"), True, False):
        with pytest.raises(ConfigError):
            number(bad, "x", int)
    for bad in (True, float("inf"), float("-inf"), float("nan"), "nan", "inf", "1e400"):
        with pytest.raises(ConfigError):
            number(bad, "x")
    assert number("2.5", "x") == 2.5


def test_json_numbers_refuse_nan_and_infinities():
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):
        with pytest.raises(ConfigError):
            json_numbers(json.loads(f'{{"a": {text}}}'), ("a",), "block")
    assert json_numbers({"a": 1e300}, ("a",), "block") == {"a": 1e300}


def test_boolean_takes_only_true_and_false():
    assert boolean(True, "x") is True and boolean(False, "x") is False
    for bad in ("false", "true", 0, 1, None, []):
        with pytest.raises(ConfigError):
            boolean(bad, "x")


def test_modality_of_unset_and_bogus():
    assert modality_of({}) is None
    assert modality_of({"modality": ""}, Modality.BOX_TEMP) is Modality.BOX_TEMP
    assert modality_of({"modality": "soil_moisture"}) is Modality.SOIL_MOISTURE
    with pytest.raises(ConfigError):
        modality_of({"modality": "bogus"})


def test_injection_plan_keeps_numbers_as_written():
    plan = injection_plan({"kind": "noise", "noise_multiplier": 3,
                           "noise_burst_lengths": ["12", 24.0]}, seed=1)
    assert plan.noise_multiplier == 3 and isinstance(plan.noise_multiplier, int)
    assert plan.noise_burst_lengths == (12, 24)
    for bad in ({"short_fraction": "0.1"}, {"short_intensity": 10 ** 400},
                {"noise_burst_lengths": "99"}, {"noise_burst_lengths": [None]}):
        with pytest.raises(ConfigError):
            injection_plan(bad, seed=1)
