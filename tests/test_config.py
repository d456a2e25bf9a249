"""The config boundary: values of the wrong type exit 2, never with a traceback."""

import contextlib
import copy
import inspect
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from faultlab import ConfigError, Modality, fit_llse_model
from faultlab.cli import main
from faultlab.config import KEYS, injection_plan, json_numbers, number, value

BASE = {
    "seed": 3,
    "modality": "soil_moisture",
    "synth": {"train_days": 1, "test_days": 2, "n_events": 1, "train_events": 1,
              "interval_s": 1800,
              "nodes": [{"id": "n1"}, {"id": "n2", "response_scale": 0.5, "lag_s": 1800},
                        {"id": "n3"}],
              "box": {"mean_c": 20.0, "amplitude_c": 6.0, "noise_sigma_c": 0.3,
                      "event_depression_c": 4.0, "recovery_s": 21600.0},
              "soil": {"baseline_vwc": 0.2, "baseline_noise_vwc": 0.003,
                       "spike_gain_vwc_per_mm": 0.015, "decay_tau_s": 86400.0},
              "schedule": {"min_duration_s": 1800, "max_duration_s": 3600,
                           "min_rain_mm": 2, "max_rain_mm": 20},
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
# The block the "sweep data" command puts in place of BASE's synth block; its
# files are the site's outputs.
DATA = {"train_csv": "series.csv", "test_csv": "series.csv", "events_csv": "events.csv",
        "node_id": "n1", "labels_json": None}

PROFILES = ("box", "soil", "schedule")
SYNTH_KEYS = [
    ("synth",), ("synth", "train_days"), ("synth", "test_days"), ("synth", "n_events"),
    ("synth", "train_events"), ("synth", "interval_s"), ("synth", "nodes"),
    ("synth", "nodes", 1, "id"), ("synth", "nodes", 1, "response_scale"),
    ("synth", "nodes", 1, "lag_s"), ("synth", "target"),
    *[("synth", block) for block in PROFILES],
    *[("synth", block, key) for block in PROFILES for key in BASE["synth"][block]],
]
INJECT_KEYS = [
    ("inject",), ("inject", "kind"), ("inject", "short_intensity"),
    ("inject", "short_fraction"), ("inject", "noise_multiplier"),
    ("inject", "noise_burst_lengths"), ("inject", "noise_total_fraction"),
    ("inject", "base_sigma"),
]
LLSE_KEYS = [("llse",), ("llse", "percentile_p"), ("llse", "vote_q"), ("llse", "signed")]
DATA_KEYS = [("data",), *[("data", key) for key in DATA]]

# The keys of the README "Config keys" table each command reads, as paths
# into BASE (into DATA for the data block); together they cover the whole table.
READS = {
    "synth": [("seed",), ("modality",), *SYNTH_KEYS],
    "sweep": [("seed",), ("modality",), *SYNTH_KEYS, *INJECT_KEYS, ("detector",),
              ("grid",), ("noise_window_len",), ("smooth",)],
    "sweep data": [("seed",), ("modality",), *DATA_KEYS, *INJECT_KEYS, ("detector",),
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
        "sweep data": ["sweep"],
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


def put(cfg, path, raw):
    *head, last = path
    for key in head:
        cfg = cfg[key]
    cfg[last] = raw


def run_changed(site, command, changes):
    """`command` run on BASE with each (path, raw) of `changes` put in."""
    commands, d = site
    cfg = copy.deepcopy(BASE)
    if command == "sweep data":
        del cfg["synth"]
        cfg["data"] = {key: str(d / raw) if key.endswith("_csv") else raw
                       for key, raw in DATA.items()}
    # Deeper keys first, so a later change may replace their parent.
    for path, raw in sorted(changes, key=lambda c: -len(c[0])):
        put(cfg, path, raw)
    path = d / "hostile.json"
    path.write_text(json.dumps(cfg))
    return run([*commands[command], "--config", str(path), "--out", str(d / "out")])


def check_exit(rc, err):
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.startswith(("config error:", "data error:", "numeric error:"))
        assert len(err.splitlines()) == 1


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_type_confused_config_never_escapes(site, data):
    command = data.draw(st.sampled_from(sorted(READS)))
    changes = data.draw(st.lists(st.tuples(st.sampled_from(READS[command]), HOSTILE),
                                 min_size=1, max_size=3))
    check_exit(*run_changed(site, command, changes))


# Numbers at the edges of what a JSON config carries: signed zeros, the
# smallest subnormal and normal floats, the float limits, the int64 edges and
# one past them, and an int of 400 digits.
EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, 1e-308, 1e308, -1e308, 2**62, -2**62,
                            2**63, -2**63, int("9" * 400)])


def number_paths(path):
    """`path` when BASE holds a number there, the path of its first entry
    when BASE holds a list of numbers there, else nothing."""
    raw = BASE | {"data": DATA}
    for key in path:
        raw = raw[key]
    if isinstance(raw, list) and raw:
        path, raw = (*path, 0), raw[0]
    return [path] if type(raw) in (int, float) else []


NUMBER_KEYS = [(command, path) for command in sorted(READS)
               for read in READS[command] for path in number_paths(read)]
NEGATIVE_ZERO_SCALES = [("inject", ("inject", "noise_multiplier")),
                        ("inject", ("inject", "base_sigma")),
                        ("sweep", ("inject", "noise_multiplier")),
                        ("sweep", ("inject", "base_sigma")),
                        ("synth", ("synth", "box", "noise_sigma_c")),
                        ("synth", ("synth", "soil", "baseline_noise_vwc"))]


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(NUMBER_KEYS), extreme=EXTREMES)
def test_extreme_numbers_never_escape(site, key, extreme):
    command, path = key
    check_exit(*run_changed(site, command, [(path, extreme)]))


for key in NEGATIVE_ZERO_SCALES:  # the cases that escaped before extremes were drawn
    test_extreme_numbers_never_escape = example(key=key, extreme=-0.0)(
        test_extreme_numbers_never_escape)


@pytest.mark.parametrize("command, path", NEGATIVE_ZERO_SCALES)
def test_a_negative_zero_noise_scale_exits_2(site, command, path):
    rc, err = run_changed(site, command, [(path, -0.0)])
    assert rc == 2 and err.startswith(f"config error: {path[-1]} must be >= 0")
    assert len(err.splitlines()) == 1


def test_seed_must_be_a_plain_integer():
    assert value({"seed": 7}, "seed") == 7 and value({}, "seed") == 0
    for bad in (True, False, -1, 1.0, "1", None):
        with pytest.raises(ConfigError):
            value({"seed": bad}, "seed")


def test_number_keeps_int_and_float_conversions():
    assert number("30", "x", int) == 30
    assert number(1.5, "x", int) == 1
    assert number(-2**63, "x", int) == -2**63 and number(2**63 - 1, "x", int) == 2**63 - 1
    for bad in ("x", None, [], {}, float("inf"), True, False, 2**63, -2**63 - 1, 1e19):
        with pytest.raises(ConfigError):
            number(bad, "x", int)
    for bad in (True, float("inf"), float("-inf"), float("nan"), "nan", "inf", "1e400"):
        with pytest.raises(ConfigError):
            number(bad, "x")
    assert number("2.5", "x") == 2.5


NINES = int("9" * 4300)  # the longest integer Python's json reads


@pytest.mark.parametrize("command, cfg, key", [
    ("synth", {"synth": {"test_days": NINES, "n_events": 0}}, "synth.test_days"),
    ("synth", {"synth": {"train_days": NINES, "n_events": 0}}, "synth.train_days"),
    ("sweep", BASE | {"detector": "noise", "noise_window_len": NINES}, "noise_window_len"),
    ("sweep", BASE | {"inject": BASE["inject"] | {"noise_burst_lengths": [NINES]}},
     "inject.noise_burst_lengths"),
])
def test_integers_past_int64_exit_2_with_a_short_line(tmp_path, command, cfg, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc, err = run([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2 and err.startswith(f"config error: {key} must be an integer within int64")
    assert len(err.splitlines()) == 1 and len(err) < 200


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_a_long_negative_seed_exits_2_with_a_short_line(tmp_path, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE | {"seed": -NINES}))
    rc, err = run([command, "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2 and err.startswith("config error: seed must be a non-negative integer, "
                                      "got -1.000000e+4300")
    assert len(err.splitlines()) == 1 and len(err) < 200


def test_json_numbers_refuse_nan_and_infinities():
    for text in ("NaN", "Infinity", "-Infinity", "1e400"):
        with pytest.raises(ConfigError):
            json_numbers(json.loads(f'{{"a": {text}}}'), ("a",), "block")
    assert json_numbers({"a": 1e300}, ("a",), "block") == {"a": 1e300}


def test_boolean_takes_only_true_and_false():
    for path in ("smooth", "llse.signed"):
        key = path.split(".")[-1]
        assert value({key: True}, path) is True and value({key: False}, path) is False
        for bad in ("false", "true", 0, 1, None, []):
            with pytest.raises(ConfigError, match=f"^{path} must be true or false"):
                value({key: bad}, path)


def test_modality_of_unset_and_bogus():
    assert value({}, "modality") is None
    assert value({"modality": ""}, "modality") is None  # a sweep then scores box_temp
    assert value({"modality": None}, "modality") is None
    assert value({"modality": "soil_moisture"}, "modality") is Modality.SOIL_MOISTURE
    for bad in ("bogus", 0, False, [], {}, ["box_temp"]):
        with pytest.raises(ConfigError):
            value({"modality": bad}, "modality")


def test_null_reads_as_absent_only_where_there_is_no_default():
    for path, (kind, default) in KEYS.items():
        block = {path.split(".")[-1]: None}
        if default is None:
            assert value(block, path) is None
        else:
            assert value({}, path) == default
            with pytest.raises(ConfigError, match=f"^{path} must be "):
                value(block, path)


def test_injection_plan_keeps_numbers_as_written():
    plan = injection_plan({"kind": "noise", "noise_multiplier": 3,
                           "noise_burst_lengths": ["12", 24.0]}, seed=1)
    assert plan.noise_multiplier == 3 and isinstance(plan.noise_multiplier, int)
    assert plan.noise_burst_lengths == (12, 24)
    for bad in ({"short_fraction": "0.1"}, {"short_intensity": 10 ** 400},
                {"noise_burst_lengths": "99"}, {"noise_burst_lengths": [None]}):
        with pytest.raises(ConfigError):
            injection_plan(bad, seed=1)


@pytest.mark.parametrize("command, path, raw, message", [
    *[("sweep", ("synth", "target"), raw, "synth.target must be a non-empty string")
      for raw in (0, False, "", [], {})],
    *[(command, ("modality",), raw, "modality must be box_temp or soil_moisture")
      for command in ("synth", "sweep") for raw in (0, False, [], {})],
    # These have a default that is not "none", so null exits 2 as well.
    *[("synth", ("synth", "nodes"), raw, "synth.nodes must be a non-empty list")
      for raw in (0, False, "", [], {}, None)],
    *[("synth", ("synth", block), raw, f"synth.{block} must be an object")
      for block in PROFILES for raw in (0, False, "", [], None)],
])
def test_falsy_values_of_the_wrong_type_exit_2(site, command, path, raw, message):
    rc, err = run_changed(site, command, [(path, raw)])
    assert rc == 2 and err.startswith(f"config error: {message}, got ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["synth", "sweep"])
def test_the_synth_days_alias_is_refused(site, command):
    rc, err = run_changed(site, command, [(("synth", "days"), 5)])
    assert (rc, err) == (2, "config error: synth.days is not a key; set synth.test_days\n")


README = Path(__file__).resolve().parents[1] / "README.md"


def test_keys_match_the_readme_the_fuzz_and_fit_llse_model():
    table = README.read_text().split("\n### Config keys\n", 1)[1].split("\n## ", 1)[0]
    defaults = dict(re.findall(r"^\| `([\w.]+)` \| [^|]+ \| ([^|]+) \|", table, re.M))
    for path, (_, default) in KEYS.items():
        assert defaults[path].strip() == ("none" if default is None else f"`{json.dumps(default)}`")
    assert set(KEYS) <= {".".join(map(str, path)) for paths in READS.values() for path in paths}
    signature = inspect.signature(fit_llse_model).parameters
    assert {path: default for path, (_, default) in KEYS.items() if path.startswith("llse.")} \
        == {f"llse.{name}": p.default for name, p in signature.items() if p.default is not p.empty}
