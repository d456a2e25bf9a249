"""The data-file boundary: hostile series, events, flags, labels and model
files exit 0, 2, 3 or 4 with at most one stderr line, never with a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from faultlab.cli import main

SITE = {
    "seed": 5,
    "modality": "soil_moisture",
    "synth": {"train_days": 1, "test_days": 2, "n_events": 1, "train_events": 1,
              "interval_s": 1800,
              "nodes": [{"id": "n1"}, {"id": "n2", "response_scale": 0.5}, {"id": "n3"}]},
    "inject": {"kind": "both", "short_fraction": 0.1, "noise_burst_lengths": [4],
               "noise_total_fraction": 0.2, "base_sigma": 0.01},
    "llse": {"vote_q": 1},
    "noise_window_len": 4,
}

# Cells that parse as something (numbers at the float limits, ISO times,
# sources, modalities) mixed with ones that do not.
CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "-0", "-0.0", "1", "7", "-1", "3600", "7200", "0.2", "1e308",
                     "-1e308", "5e-324", "1e400", "nan", "-inf", "99999999999999999999999",
                     "1970-01-01T01:00:00Z", "9999-12-31T23:59:59-01:00", "n1", "n2",
                     "soil_moisture", "box_temp", "short", "noise", "llse", '"', '"a,b"', "#"]),
    st.text(max_size=3))
HOSTILE_LINE = st.one_of(st.lists(CELLS, max_size=5).map(",".join),
                         st.sampled_from(["", "  ", "# note"]))

# JSON values of every type, including numbers the rule refuses; the
# sentinel becomes the literal 1e400, which no JSON encoder writes.
HUGE = "__1e400__"
NUMBERS = st.sampled_from([0, -1, 3, 1.5, 1e308, 2**63, float("nan"), float("inf"), HUGE])
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), st.text(max_size=3))
HOSTILE = st.one_of(SCALARS, st.lists(SCALARS, max_size=3),
                    st.dictionaries(st.sampled_from(["start", "len", "node_id", "beta0", "x"]),
                                    SCALARS, max_size=3))


def run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check(argv):
    rc, err = run(argv)
    assert rc in (0, 2, 3, 4)
    if rc:
        assert err.startswith(("config error:", "data error:", "numeric error:"))
        assert len(err.splitlines()) == 1
    else:
        assert err == ""


@pytest.fixture(scope="module")
def site(tmp_path_factory):
    """Valid inputs of every format, made by the CLI itself."""
    d = tmp_path_factory.mktemp("files")
    cfg = d / "site.json"
    cfg.write_text(json.dumps(SITE))
    c = ["--config", str(cfg)]
    series = str(d / "series.csv")
    node = ["--in", series, "--node", "n1"]
    for argv in (["synth", "--out", str(d)],
                 ["inject", *node, "--out", str(d)],
                 ["train", "--detector", "short", "--delta", "0.05", "--out", str(d / "short")],
                 ["train", "--detector", "noise", *node, "--out", str(d / "noise")],
                 ["train", "--detector", "llse", "--in", series, "--target", "n1",
                  "--out", str(d / "llse")],
                 ["detect", "--detector", "short", "--delta", "0.01",
                  "--in", str(d / "faulted.csv"), "--out", str(d)]):
        assert run([*argv, *c]) == (0, "")
    return d


def edited_lines(data, text: str) -> str:
    """`text` with a few lines replaced, inserted or deleted, or values swapped."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines)))
        op = data.draw(st.sampled_from(["replace", "insert", "delete", "value"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, data.draw(HOSTILE_LINE))
        elif op == "replace":
            lines[i] = data.draw(HOSTILE_LINE)
        elif op == "delete":
            del lines[i]
        else:
            cells = lines[i].split(",")
            cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELLS)
            lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def edited_json(data, doc):
    """`doc` with values replaced or deleted at every depth and maybe an extra
    key; the echo blocks `config` and `plan` are kept or replaced whole."""
    value = st.one_of(NUMBERS, HOSTILE)
    if isinstance(doc, list):
        return [data.draw(value) if data.draw(st.integers(0, 9)) == 9 else edited_json(data, v)
                for v in doc]
    if not isinstance(doc, dict):
        return doc
    out = {}
    for key, v in doc.items():
        roll = data.draw(st.integers(0, 9))
        if roll < 7:
            out[key] = v if key in ("config", "plan") else edited_json(data, v)
        elif roll < 9:
            out[key] = data.draw(value)
    if data.draw(st.integers(0, 9)) == 9:
        out["extra"] = data.draw(value)
    return out


def hostile_json(data, path) -> str:
    doc = edited_json(data, json.loads(path.read_text()))
    return json.dumps(doc).replace(f'"{HUGE}"', "1e400")


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_series_csv_never_escapes(site, data):
    bad = site / "hostile_series.csv"
    bad.write_text(edited_lines(data, (site / "series.csv").read_text()))
    node = ["--in", str(bad), "--node", "n1"]
    check(data.draw(st.sampled_from([
        ["detect", "--detector", "short", "--delta", "0.01", *node],
        ["train", "--detector", "noise", *node],
        ["train", "--detector", "llse", "--in", str(bad), "--target", "n1"],
    ])) + ["--modality", "soil_moisture", "--out", str(site / "out")])


@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_hostile_events_csv_never_escapes(site, data):
    bad = site / "hostile_events.csv"
    bad.write_text(edited_lines(data, (site / "events.csv").read_text()))
    check(["evaluate", "--in", str(site / "faulted.csv"), "--flags", str(site / "flags.csv"),
           "--events", str(bad), "--out", str(site / "out")])


@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_hostile_flags_csv_never_escapes(site, data):
    bad = site / "hostile_flags.csv"
    bad.write_text(edited_lines(data, (site / "flags.csv").read_text()))
    check(["evaluate", "--in", str(site / "faulted.csv"), "--flags", str(bad),
           "--events", str(site / "events.csv"), "--out", str(site / "out")])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_hostile_labels_json_never_escapes(site, data):
    bad = site / "hostile.labels.json"
    bad.write_text(hostile_json(data, site / "faulted.labels.json"))
    kind = data.draw(st.sampled_from([[], ["--fault-kind", "short"], ["--fault-kind", "noise"]]))
    check(["evaluate", "--in", str(site / "faulted.csv"), "--flags", str(site / "flags.csv"),
           "--events", str(site / "events.csv"), "--labels", str(bad), *kind,
           "--out", str(site / "out")])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_model_json_never_escapes(site, data):
    detector = data.draw(st.sampled_from(["short", "noise", "llse"]))
    bad = site / "hostile_model.json"
    bad.write_text(hostile_json(data, site / detector / "model.json"))
    series = str(site / "series.csv")
    check(["detect", "--detector", detector, "--model", str(bad), "--in", series,
           *(["--node", "n1"] if detector != "llse" else []),
           *(["--multiplier", "2"] if detector == "noise" else []),
           "--modality", "soil_moisture", "--out", str(site / "out")])
