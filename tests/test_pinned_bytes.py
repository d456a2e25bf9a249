"""Output bytes pinned by hash.

Criterion 8 reruns the same code, so it cannot see a change that alters
output bytes. Most runs here read integer-valued CSVs written here, so any
change to their bytes is a change to what faultlab writes. The inject runs
draw their fault positions from PCG64's integer stream, which numpy keeps
stable, and add noise of zero scale, so no normal draw reaches the output
either. The synth run is pinned too, and run again with numpy's SIMD
dispatch held at the lowest level the host offers: its bytes must not depend
on the CPU. So is a soil series several of synth's chunks long.
"""

import hashlib
import json
import os
import subprocess
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest

import faultlab
from faultlab import Modality, Series
from faultlab.cli import main
from faultlab.io import write_series_csv
from faultlab.pipeline import build_synth_config

N = 288  # two days at 600 s
SHORT_LABELS = [50, 120, 250]
NOISE_BURST = (180, 36)


def series_csv(values) -> str:
    rows = [f"{600 * k},n1,soil_moisture,{v}" for k, v in enumerate(values)]
    return "timestamp,node_id,modality,value\n" + "\n".join(rows) + "\n"


def train_values():
    return [20 + (k * 5) % 11 for k in range(N)]


def faulted_values():
    values = train_values()
    for k in range(10, 20):  # a rain step inside the first event
        values[k] += 6 * (k - 9)
    for k in range(100, 120):  # the second event rises and falls
        values[k] += 3 * min(k - 99, 120 - k)
    for k in SHORT_LABELS:
        values[k] += 40
    start, length = NOISE_BURST
    for k in range(start, start + length):
        values[k] += 9 if k % 2 else -9
    return values


def write_inputs(tmp_path):
    (tmp_path / "train.csv").write_text(series_csv(train_values()))
    (tmp_path / "test.csv").write_text(series_csv(faulted_values()))
    (tmp_path / "events.csv").write_text("start,end\n6000,12000\n60000,72000\n")
    (tmp_path / "short.labels.json").write_text(json.dumps({"short": SHORT_LABELS}))
    start, length = NOISE_BURST
    (tmp_path / "noise.labels.json").write_text(
        json.dumps({"noise": [{"start": start, "len": length}]}))
    (tmp_path / "short.flags.csv").write_text(
        "index,flag_source\n120,short\n10,short\n50,short\n11,short\n")
    (tmp_path / "noise.flags.csv").write_text("index,flag_source\n" + "".join(
        f"{k},noise\n" for k in [*range(0, 18), *range(180, 198)]))


def digests(out) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if not p.name.endswith(".meta.json")}


SWEEPS = {
    "short": ([2, 5, 10, 30, 60], {
        "report_000.json": "4b961beaca1a633c11889d50a74e48d711c32a7e2e18c26aab66650ec22ef49a",
        "report_001.json": "ae78340086b9f227bf25e4f68d6c963621571417226ac3a29bd2b590a600bc86",
        "report_002.json": "478e4646520aee2928641c6c0b66c4e7a19876c3ebdf58b836d1452fb2de1f59",
        "report_003.json": "1209a324aa2245b3f081455a5ee330014707d09bd0f8a38a6da2923d8dd1f33e",
        "report_004.json": "83f320d174ba919f0bc652154005ea0512a53aa68819928e08407fdc28ba3b60",
        "sweep.csv": "6fdac8b2bcef488e8e14e1eea7354704053e4673cd335c539ac7f8b29aac35a7",
    }),
    "noise": ([0, 1, 2, 50, 100, 150, 250], {
        "report_000.json": "910cf60642d068a7b7eb12797c58032a6835204bca7e67fb91c5d4cd8f6340a9",
        "report_001.json": "508578e0129d933ff48201d67600b029aecc60ccaa1c2144d9d8a46a100458ec",
        "report_002.json": "7487b8b1573e5b29a28ee470957c2ecfc1721924ff2a76b3aaef3f5c6f04ca23",
        "report_003.json": "0dac10929deae269b391623f804f0dea5289225aeace4b0d656a77bc52b5cc64",
        "report_004.json": "ea3ea398b2a18cc998e305ccdd8160e99284cb405878355e29d9acbf1d8bbeb1",
        "report_005.json": "a5819645024c43c4db13475f9ef62fc80417f1ca5768cc380259122ba9033ea8",
        "report_006.json": "1a12a5372b4ba90322e59fd0dc0ab491f8f46931f91ec75e934eaee72d6a652c",
        "sweep.csv": "44221f2e7cc7d0d818a8022e4670652ad34029aa1a0fe936a631af5ee1ee81c8",
    }),
}


@pytest.mark.parametrize("detector", sorted(SWEEPS))
def test_sweep_bytes_are_pinned(tmp_path, detector):
    write_inputs(tmp_path)
    grid, expected = SWEEPS[detector]
    data = {"train_csv": str(tmp_path / "train.csv"), "test_csv": str(tmp_path / "test.csv"),
            "events_csv": str(tmp_path / "events.csv"), "node_id": "n1",
            "labels_json": str(tmp_path / f"{detector}.labels.json")}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": detector, "grid": grid, "data": data,
                               "smooth": False, "modality": "soil_moisture"}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 0
    assert digests(out) == expected


EVALUATES = {
    "short": "6e0dab9d6c66f3f286ac697fe283e257b6d228ceeb548a710ffaec6ec17f89cc",
    "noise": "6a259d90721562193fb8d426b4ce0487727924769e66608eed7d6e41c186a5df",
}


@pytest.mark.parametrize("kind", sorted(EVALUATES))
def test_evaluate_bytes_are_pinned(tmp_path, kind):
    write_inputs(tmp_path)
    out = tmp_path / "out"
    assert main(["evaluate", "--in", str(tmp_path / "test.csv"),
                 "--flags", str(tmp_path / f"{kind}.flags.csv"),
                 "--events", str(tmp_path / "events.csv"),
                 "--labels", str(tmp_path / f"{kind}.labels.json"),
                 "--out", str(out)]) == 0
    assert digests(out) == {"report.json": EVALUATES[kind]}


INJECTS = {
    "both": {
        "faulted.csv": "461d201a2cbd9765a808f03cae24239e9af18de050b4c31537473491113fc338",
        "faulted.labels.json": "81ec8e80f8382e8faecb343843ab3cc40754f0962f50b31de5f7b6a7084793d0",
    },
    "noise": {
        "faulted.csv": "5019a11c4da16e829c4474434baa7ffb701c6055073b2dfa68ddcb3ef39bfcea",
        "faulted.labels.json": "84f446d48210950ed284e19376114e0b86a3d8b386b50a9569bf052e789ae988",
    },
    "short": {
        "faulted.csv": "461d201a2cbd9765a808f03cae24239e9af18de050b4c31537473491113fc338",
        "faulted.labels.json": "d0ae97ad8b7feebaf94972683ad349c561ec27991ab6ccaa8d8c40d9ec32b48c",
    },
}


@pytest.mark.parametrize("kind", sorted(INJECTS))
def test_inject_bytes_are_pinned(tmp_path, kind):
    write_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "inject": {
        "short_intensity": 0.5, "noise_multiplier": 0.0, "base_sigma": 1.0,
        "noise_burst_lengths": [12, 30], "noise_total_fraction": 0.2}}))
    out = tmp_path / "out"
    assert main(["inject", "--config", str(cfg), "--in", str(tmp_path / "train.csv"),
                 "--kind", kind, "--out", str(out)]) == 0
    assert digests(out) == INJECTS[kind]


def test_fractional_stamp_bytes_are_pinned(tmp_path):
    # No stamp of the first series is whole, and every other stamp of the
    # second is, so both take the per-row format_timestamp path of the writer.
    # 5,000 rows each span two 4,096-row blocks.
    values = np.arange(5_000) * 0.1
    series = [Series("n1", Modality.SOIL_MOISTURE, 1743465600.25, 0.5, values),
              Series("n2", Modality.SOIL_MOISTURE, 1743465600.0, 0.5, values)]
    write_series_csv(tmp_path / "series.csv", series)
    assert digests(tmp_path) == {
        "series.csv": "a0ee914e6e6a0d3088c5625ffcfb903f54bc48b307876e50a7b58d9b1bbb1c63"}


def llse_csv() -> str:
    """Three soil nodes with integer values: n2 and n3 follow n1 up to a
    small periodic offset, and n1 carries three spikes of its own."""
    base = [20 + (k * 5) % 11 for k in range(N)]
    nodes = {"n1": [v + (40 if k in SHORT_LABELS else 0) for k, v in enumerate(base)],
             "n2": [2 * v + 1 + (k * 7) % 5 for k, v in enumerate(base)],
             "n3": [v + 5 + (k * 3) % 7 for k, v in enumerate(base)]}
    rows = [f"{600 * k},{node},soil_moisture,{values[k]}"
            for node, values in nodes.items() for k in range(N)]
    return "timestamp,node_id,modality,value\n" + "\n".join(rows) + "\n"


DETECTS = {
    "llse": {
        "flags.csv": "5b620a1f2e3f0aa5a6cc74d65ad7005e0120a2624c3b10b79a180bd6c7be5ac1",
        "flags.csv.meta.json": "a0ac98c0d1e9b9ec58de40509b30485a91385aac67bb78a573dd3d57a8527a56",
    },
    "noise": {
        "flags.csv": "46bbd666315554b96a35ad61604c1ffc606b44eaeecd423d34d153ceccae8e34",
        "flags.csv.meta.json": "beafd79ba79819f7a4d53e5a46dc45664a81f66db3295593338d93c543fcab49",
    },
    "short": {
        "flags.csv": "82ba6bde144534c811de224a1a57bc4e4122cabf43cd2132d58b11be220d7f0d",
        "flags.csv.meta.json": "beafd79ba79819f7a4d53e5a46dc45664a81f66db3295593338d93c543fcab49",
    },
}


def detect_argvs(tmp_path, detector):
    """The `train` arguments of `detector` (None for short) and its `detect` arguments."""
    test, model = str(tmp_path / "test.csv"), str(tmp_path / "model" / "model.json")
    llse = ["--in", str(tmp_path / "llse.csv"), "--modality", "soil_moisture"]
    return {"short": (None, ["--in", test, "--delta", "10"]),
            "noise": (["--in", str(tmp_path / "train.csv")],
                      ["--in", test, "--model", model, "--multiplier", "2"]),
            "llse": ([*llse, "--target", "n1"], [*llse, "--model", model])}[detector]


@pytest.mark.parametrize("detector", sorted(DETECTS))
def test_detect_bytes_are_pinned(tmp_path, detector):
    write_inputs(tmp_path)
    (tmp_path / "llse.csv").write_text(llse_csv())
    train, detect = detect_argvs(tmp_path, detector)
    if train:
        assert main(["train", "--detector", detector, *train,
                     "--out", str(tmp_path / "model")]) == 0
    out = tmp_path / "out"
    assert main(["detect", "--detector", detector, *detect, "--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())} == DETECTS[detector]


def grammar_stamp(k: int) -> str:
    """The k-th 600 s stamp from 2025-04-01T00:00:00Z, spelled in one of the
    stamp grammar's forms: `Z`, a space, offsets of -05:30, +02:00 and
    -00:00:00, no seconds, and 0.25 s late with a `.250` or `.250000`
    fraction; 06:00 is hour-only and the second day's midnight date-only."""
    at = datetime(2025, 4, 1, tzinfo=timezone.utc) + timedelta(seconds=600 * k)
    if k in (36, 144):
        return at.strftime("%Y-%m-%dT%H" if k == 36 else "%Y-%m-%d")
    spell = [("%Y-%m-%dT%H:%M:%SZ", 0), ("%Y-%m-%d %H:%M:%S", 0),
             ("%Y-%m-%dT%H:%M:%S-05:30", -330), ("%Y-%m-%dT%H:%M:%S+02:00", 120),
             ("%Y-%m-%dT%H:%M", 0), ("%Y-%m-%dT%H:%M:%S.250", 0),
             ("%Y-%m-%d %H:%M:%S.250000+00:00", 0), ("%Y-%m-%dT%H:%M:%S-00:00:00", 0)]
    form, minutes = spell[k % len(spell)]
    return (at + timedelta(minutes=minutes)).strftime(form)


# The test series of `write_inputs` in grammar stamps: short flags and their report.
GRAMMAR = {
    "flags.csv": "82ba6bde144534c811de224a1a57bc4e4122cabf43cd2132d58b11be220d7f0d",
    "report.json": "828ee2fe22fa05a020ca54e0cdb2413d4d27533da004ad5554bab52fac7f2268",
}


def test_grammar_stamp_bytes_are_pinned(tmp_path):
    """Every Python reads each grammar form alike, so these bytes are one
    set on every Python the tests run on."""
    write_inputs(tmp_path)
    rows = [f"{grammar_stamp(k)},n1,soil_moisture,{v}" for k, v in enumerate(faulted_values())]
    series = tmp_path / "grammar.csv"
    series.write_text("timestamp,node_id,modality,value\n" + "\n".join(rows) + "\n")
    events = tmp_path / "grammar_events.csv"
    events.write_text("start,end\n2025-04-01T01:40:00+00:00,2025-04-01 03:20\n"
                      "2025-04-01T11:10-05:30,2025-04-01T22:00:00.000000+02:00\n")
    out = tmp_path / "out"
    assert main(["detect", "--in", str(series), "--detector", "short", "--delta", "10",
                 "--out", str(out)]) == 0
    assert main(["evaluate", "--in", str(series), "--flags", str(out / "flags.csv"),
                 "--events", str(events), "--labels", str(tmp_path / "short.labels.json"),
                 "--out", str(out)]) == 0
    assert digests(out) == GRAMMAR


# README's walkthrough site.
SITE = {"seed": 11,
        "synth": {"train_days": 30, "test_days": 90, "n_events": 21, "train_events": 5,
                  "interval_s": 600, "nodes": [{"id": "node1"}]},
        "inject": {"kind": "short", "short_intensity": 0.2}}
SITE_SERIES = "2a0c86fa8e822c33c52fc1236a285fadcbdf9227b807326ce94f9830cd73785d"


def synth_site(tmp_path, env=None) -> str:
    """sha256 of the series.csv that `faultlab synth` writes for SITE, run in
    this process or, given `env`, in a fresh one with those variables."""
    cfg, out = tmp_path / "site.json", tmp_path / "site"
    cfg.write_text(json.dumps(SITE))
    argv = ["synth", "--config", str(cfg), "--out", str(out)]
    if env is None:
        assert main(argv) == 0
    else:
        code = "import sys; from faultlab.cli import main; sys.exit(main(sys.argv[1:]))"
        subprocess.run([sys.executable, "-c", code, *argv], check=True, capture_output=True,
                       env=os.environ | env)
    return hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()


def test_synth_bytes_are_pinned(tmp_path):
    assert synth_site(tmp_path) == SITE_SERIES


def test_synth_bytes_do_not_depend_on_the_simd_level(tmp_path):
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    host = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if len(host) < 2:
        pytest.skip(f"numpy dispatches to one SIMD level at most here: {host}")
    src = str(Path(faultlab.__file__).resolve().parents[1])
    env = {"NPY_DISABLE_CPU_FEATURES": " ".join(host[1:]),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    assert synth_site(tmp_path, env) == SITE_SERIES


# The study sweep's year: 365 d at 180 s with 98 events, 175,200 samples.
STUDY = {"train_days": 30, "test_days": 335, "n_events": 90, "train_events": 8,
         "interval_s": 180, "nodes": [{"id": "n1"}]}
STUDY_SOIL = "3d09af5d628a0ab0bdb9e05237f1b733e1b3e22734460d5dc6f783c556dd397c"


def test_multi_chunk_soil_bytes_are_pinned():
    (soil,), _, schedule, _ = build_synth_config(STUDY, 1, "n1", Modality.SOIL_MOISTURE)
    assert len(schedule) == 98 and len(soil) == 175_200
    assert hashlib.sha256(soil.values.tobytes()).hexdigest() == STUDY_SOIL
