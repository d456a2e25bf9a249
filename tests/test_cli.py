"""End-to-end command-line tests: subcommand chains, exit codes, sidecars."""

import itertools
import json

import numpy as np
import pytest

import faultlab.cli as cli
import faultlab.io as fio
import faultlab.pipeline as pipeline
from faultlab.cli import main
from faultlab.detect import LlseModel, NeighborFit, model_to_dict
from faultlab.errors import DataError
from faultlab.io import read_detection_csv, write_series_csv
from faultlab.series import Modality, Series


def write_cfg(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


SYNTH_SMALL = {
    "train_days": 1,
    "test_days": 2,
    "n_events": 2,
    "train_events": 1,
    "interval_s": 600,
    "nodes": [{"id": "node1"}],
}


def test_short_chain_produces_report(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 11, "synth": SYNTH_SMALL})
    synth_dir = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
    assert (synth_dir / "series.csv").exists()
    assert (synth_dir / "events.csv").exists()
    assert (synth_dir / "schedule.json").exists()

    inj_dir = tmp_path / "inj"
    assert main(["inject", "--config", cfg, "--in", str(synth_dir / "series.csv"),
                 "--modality", "soil_moisture", "--kind", "short",
                 "--out", str(inj_dir)]) == 0
    assert (inj_dir / "faulted.csv").exists()
    assert (inj_dir / "faulted.labels.json").exists()

    model_dir = tmp_path / "model"
    assert main(["train", "--detector", "short", "--delta", "0.05",
                 "--out", str(model_dir)]) == 0
    model = json.loads((model_dir / "model.json").read_text())
    assert model["kind"] == "short"

    det_dir = tmp_path / "det"
    assert main(["detect", "--in", str(inj_dir / "faulted.csv"),
                 "--detector", "short", "--model", str(model_dir / "model.json"),
                 "--out", str(det_dir)]) == 0
    flags = read_detection_csv(det_dir / "flags.csv")
    assert set(flags) == {"short"} and len(flags["short"]) >= 1

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--in", str(inj_dir / "faulted.csv"),
                 "--flags", str(det_dir / "flags.csv"),
                 "--events", str(synth_dir / "events.csv"),
                 "--labels", str(inj_dir / "faulted.labels.json"),
                 "--fault-kind", "short", "--out", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert 0.0 <= report["mu"] <= 1.0
    assert "false_negative_ratio" in report


def test_noise_chain_produces_report(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "seed": 11, "synth": SYNTH_SMALL,
        "inject": {"kind": "noise", "base_sigma": 0.01, "noise_multiplier": 5.0,
                   "noise_burst_lengths": [18]}})
    synth_dir = tmp_path / "synth"
    main(["synth", "--config", cfg, "--out", str(synth_dir)])

    model_dir = tmp_path / "model"
    assert main(["train", "--detector", "noise",
                 "--in", str(synth_dir / "series.csv"),
                 "--modality", "soil_moisture", "--out", str(model_dir)]) == 0
    doc = json.loads((model_dir / "model.json").read_text())
    assert doc["kind"] == "noise" and doc["sigma_train"] > 0

    inj_dir = tmp_path / "inj"
    assert main(["inject", "--config", cfg, "--in", str(synth_dir / "series.csv"),
                 "--modality", "soil_moisture", "--kind", "noise",
                 "--out", str(inj_dir)]) == 0
    labels = json.loads((inj_dir / "faulted.labels.json").read_text())
    assert labels["noise"]

    det_dir = tmp_path / "det"
    assert main(["detect", "--in", str(inj_dir / "faulted.csv"),
                 "--detector", "noise", "--model", str(model_dir / "model.json"),
                 "--multiplier", "2.0", "--out", str(det_dir)]) == 0
    flags = read_detection_csv(det_dir / "flags.csv")
    assert set(flags) == {"noise"}

    eval_dir = tmp_path / "eval"
    assert main(["evaluate", "--in", str(inj_dir / "faulted.csv"),
                 "--flags", str(det_dir / "flags.csv"),
                 "--events", str(synth_dir / "events.csv"),
                 "--labels", str(inj_dir / "faulted.labels.json"),
                 "--fault-kind", "noise", "--out", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["false_negative_ratio"] is not None


def test_llse_train_and_detect_three_nodes(tmp_path):
    synth = dict(SYNTH_SMALL, nodes=[{"id": "n1"}, {"id": "n2"}, {"id": "n3"}])
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 3, "synth": synth})
    synth_dir = tmp_path / "synth"
    main(["synth", "--config", cfg, "--out", str(synth_dir)])

    model_dir = tmp_path / "model"
    assert main(["train", "--detector", "llse", "--in", str(synth_dir / "series.csv"),
                 "--target", "n1", "--modality", "soil_moisture",
                 "--out", str(model_dir)]) == 0
    doc = json.loads((model_dir / "model.json").read_text())
    assert doc["kind"] == "llse"
    assert sorted(fit["node_id"] for fit in doc["neighbors"]) == ["n2", "n3"]

    det_dir = tmp_path / "det"
    assert main(["detect", "--in", str(synth_dir / "series.csv"),
                 "--detector", "llse", "--model", str(model_dir / "model.json"),
                 "--modality", "soil_moisture", "--out", str(det_dir)]) == 0
    assert (det_dir / "flags.csv").exists()


@pytest.mark.parametrize("node, code", [("n1", 0), ("n2", 2)])
def test_llse_node_must_name_the_target(tmp_path, capsys, node, code):
    synth = dict(SYNTH_SMALL, nodes=[{"id": "n1"}, {"id": "n2"}, {"id": "n3"}])
    main(["synth", "--config", write_cfg(tmp_path / "cfg.json", {"seed": 3, "synth": synth}),
          "--out", str(tmp_path)])
    series, model = str(tmp_path / "series.csv"), str(tmp_path / "model" / "model.json")
    assert main(["train", "--detector", "llse", "--in", series, "--target", "n1",
                 "--modality", "soil_moisture", "--out", str(tmp_path / "model")]) == 0
    capsys.readouterr()
    for argv in (["train", "--detector", "llse", "--target", "n1"],
                 ["detect", "--detector", "llse", "--model", model]):
        assert main([*argv, "--in", series, "--modality", "soil_moisture", "--node", node,
                     "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"config error: --node {node!r} is not the llse target 'n1'\n")


# Every command's output files, in the order it writes them and prints them.
OUTPUTS = {
    "synth": ["series.csv", "series.csv.meta.json", "events.csv", "events.csv.meta.json",
              "schedule.json"],
    "inject": ["faulted.csv", "faulted.csv.meta.json", "faulted.labels.json"],
    "train": ["model.json"],
    "detect": ["flags.csv", "flags.csv.meta.json"],
    "evaluate": ["report.json"],
    "sweep": ["sweep.csv", "sweep.csv.meta.json", "report_000.json"],
}

CFG_ALL = {"seed": 3, "synth": SYNTH_SMALL, "detector": "short", "grid": [0.5],
           "inject": {"kind": "short"}}


def command_argvs(tmp_path):
    """A working argv, without --out, for every command of OUTPUTS."""
    cfg = write_cfg(tmp_path / "cfg.json", CFG_ALL)
    series, events, flags = write_site(tmp_path)
    node = ["--in", series, "--node", "n1"]
    return {
        "synth": ["synth", "--config", cfg],
        "inject": ["inject", "--config", cfg, *node],
        "train": ["train", "--detector", "short", "--delta", "0.05"],
        "detect": ["detect", "--detector", "short", "--delta", "0.01", *node],
        "evaluate": ["evaluate", *node, "--flags", flags, "--events", events],
        "sweep": ["sweep", "--config", cfg],
    }


def snapshot(directory):
    """{name: bytes} of a directory's entries, None for a subdirectory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def test_meta_sidecar_echoes_config_without_paths(tmp_path, capsys):
    for command, argv in command_argvs(tmp_path).items():
        out = tmp_path / f"out_{command}"
        assert main([*argv, "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"wrote {out / name}"
                                                       for name in OUTPUTS[command]]
        assert sorted(snapshot(out)) == sorted(OUTPUTS[command])
        for name in OUTPUTS[command]:
            assert not name.endswith(".json.meta.json")
            if name.endswith(".csv"):
                meta = json.loads((out / f"{name}.meta.json").read_text())
                assert set(meta) == {"command", "config"}
                assert meta["command"] == command
                assert meta["config"] == (CFG_ALL if "--config" in argv else {}) | {"seed": 7}
                assert "out" not in meta["config"]


def test_seed_override_controls_determinism(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"synth": SYNTH_SMALL})
    outs = [tmp_path / name for name in ("a", "b", "c")]
    for out, seed in zip(outs, ("7", "7", "8")):
        assert main(["synth", "--config", cfg, "--seed", seed,
                     "--out", str(out)]) == 0
    a, b, c = (out.joinpath("series.csv").read_bytes() for out in outs)
    assert a == b
    assert a != c


def test_sweep_writes_grid_outputs(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "seed": 5,
        "synth": {"train_days": 1, "test_days": 2, "n_events": 2, "interval_s": 600},
        "detector": "short",
        "grid": [0.5, 2.0],
        "inject": {"kind": "short"}})
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0

    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,mu,mu_first_half_hour,fn_ratio"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    for i in range(2):
        doc = json.loads((out / f"report_{i:03d}.json").read_text())
        assert "mu" in doc
    assert (out / "sweep.csv.meta.json").exists()
    assert not (out / "report_002.json").exists()


def test_sweep_failure_removes_partial_outputs(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "seed": 5,
        "synth": {"train_days": 1, "test_days": 2, "n_events": 2, "interval_s": 600},
        "detector": "short",
        "grid": [0.5],
        "inject": {"kind": "short"}})

    def boom(path, report):
        raise DataError("disk full")

    monkeypatch.setattr(cli, "save_report", boom)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("nodes", [
    [{"id": ""}], [{"id": " n1 "}], [{"id": "a"}, {"id": "a "}], [{"id": "\tn1"}]])
def test_synth_refuses_node_ids_ingest_would_read_otherwise(tmp_path, capsys, nodes):
    """Ingest strips a node_id cell and refuses an empty one, so synth writes
    no id that would read back as another or not at all."""
    cfg = write_cfg(tmp_path / "cfg.json", {"synth": {**SYNTH_SMALL, "nodes": nodes}})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: synth node id")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("node_id", ["null", "true", "false", "1.5", "1e400", "[1]", '{"a": 1}'])
def test_synth_node_ids_are_json_strings_or_integers(tmp_path, capsys, node_id):
    """An id of another JSON type is refused, not written as its Python spelling."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synth": {**SYNTH_SMALL, "nodes": "@"}})
                   .replace('"@"', f'[{{"id": {node_id}}}]'))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: synth node id ")
    assert list(out.iterdir()) == []


def test_synth_node_ids_read_back_as_written(tmp_path):
    nodes = [{"id": "n 1"}, {"id": "n,2"}, {"id": 7}]
    cfg = write_cfg(tmp_path / "cfg.json", {"synth": {**SYNTH_SMALL, "nodes": nodes}})
    assert main(["synth", "--config", cfg, "--out", str(tmp_path)]) == 0
    for node in ("n 1", "n,2", "7"):
        assert main(["inject", "--in", str(tmp_path / "series.csv"), "--node", node,
                     "--modality", "soil_moisture", "--kind", "short",
                     "--out", str(tmp_path / "inj")]) == 0


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--detector", "short", "--out", str(tmp_path)]) == 2
    assert main(["train", "--detector", "noise", "--out", str(tmp_path)]) == 2
    assert main(["synth", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2

    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path)]) == 2

    neg = write_cfg(tmp_path / "neg.json", {"seed": -1, "synth": SYNTH_SMALL})
    assert main(["synth", "--config", neg, "--out", str(tmp_path)]) == 2

    empty_grid = write_cfg(tmp_path / "grid.json", {
        "synth": SYNTH_SMALL, "detector": "short", "grid": []})
    assert main(["sweep", "--config", empty_grid, "--out", str(tmp_path)]) == 2
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("config error:")


def test_wrong_model_kind_exits_2(tmp_path):
    model_dir = tmp_path / "model"
    main(["train", "--detector", "short", "--delta", "1.0", "--out", str(model_dir)])

    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 1, "synth": SYNTH_SMALL})
    synth_dir = tmp_path / "synth"
    main(["synth", "--config", cfg, "--out", str(synth_dir)])
    code = main(["detect", "--in", str(synth_dir / "series.csv"),
                 "--detector", "noise", "--model", str(model_dir / "model.json"),
                 "--multiplier", "2.0", "--modality", "box_temp",
                 "--out", str(tmp_path)])
    assert code == 2


def test_missing_inputs_exit_3(tmp_path, capsys):
    assert main(["detect", "--in", str(tmp_path / "absent.csv"),
                 "--detector", "short", "--delta", "1.0",
                 "--out", str(tmp_path)]) == 3

    series = tmp_path / "series.csv"
    write_series_csv(series, [Series("n1", Modality.BOX_TEMP, 0.0, 600.0,
                                     np.arange(40.0))])
    assert main(["detect", "--in", str(series), "--detector", "noise",
                 "--model", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 3
    for line in capsys.readouterr().err.splitlines():
        assert line.startswith("data error:")


def test_non_finite_timestamp_exits_3(tmp_path, capsys):
    rows = [f"{k * 600},n1,soil_moisture,0.2" for k in range(10)]
    rows[5] = "nan,n1,soil_moisture,0.2"
    series = tmp_path / "x.csv"
    series.write_text("timestamp,node_id,modality,value\n" + "\n".join(rows) + "\n")
    assert main(["train", "--detector", "noise", "--in", str(series),
                 "--modality", "soil_moisture", "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {series}:7: malformed row\n"


@pytest.mark.parametrize("rows, message", [
    # the point filled between 1e308 and -1e308 overflows
    ([(0, 1), (600, 1e308), (1800, -1e308), (2400, 1)], "values must be finite"),
    # a gap over the subnormal spacing overflows
    ([(0, 1), (5e-324, 1), (1e-323, 1), (1.5e-323, 1), (1, 1)], "irregular spacing"),
    # the gap between the stamps overflows
    ([(-1e308, 1), (1e308, 2)], "irregular spacing"),
    ([(-1e308, 1), (1e308, 2), (1e308, 3)], "not strictly increasing"),
], ids=["fill", "gap-over-spacing", "gap", "gap-then-repeat"])
def test_repair_overflow_is_one_data_error(tmp_path, capsys, rows, message):
    series = tmp_path / "x.csv"
    series.write_text("timestamp,node_id,modality,value\n"
                      + "".join(f"{t!r},n1,box_temp,{v!r}\n" for t, v in rows))
    assert main(["train", "--detector", "noise", "--in", str(series),
                 "--modality", "box_temp", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and message in err[0]


def test_evaluate_rejects_mixed_flag_sources(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 1, "synth": SYNTH_SMALL})
    synth_dir = tmp_path / "synth"
    main(["synth", "--config", cfg, "--out", str(synth_dir)])

    flags = tmp_path / "flags.csv"
    flags.write_text("index,flag_source\n3,short\n5,noise\n")
    code = main(["evaluate", "--in", str(synth_dir / "series.csv"),
                 "--flags", str(flags),
                 "--events", str(synth_dir / "events.csv"),
                 "--modality", "soil_moisture", "--out", str(tmp_path)])
    assert code == 3


def test_evaluate_scores_a_detector_that_flagged_nothing(tmp_path):
    # A rule tuned not to flag events writes a flags file of its header only,
    # which scores as an empty detection: mu 0 over the events' samples.
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 1, "synth": SYNTH_SMALL})
    synth_dir, det_dir, eval_dir = tmp_path / "synth", tmp_path / "det", tmp_path / "eval"
    assert main(["synth", "--config", cfg, "--out", str(synth_dir)]) == 0
    node = ["--in", str(synth_dir / "series.csv"), "--modality", "soil_moisture"]
    assert main(["detect", *node, "--detector", "short", "--delta", "1e9",
                 "--out", str(det_dir)]) == 0
    assert (det_dir / "flags.csv").read_text() == "index,flag_source\n"
    assert main(["evaluate", *node, "--flags", str(det_dir / "flags.csv"),
                 "--events", str(synth_dir / "events.csv"), "--out", str(eval_dir)]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert report["mu"] == 0 and sum(e["samples"] for e in report["per_event"]) > 0


def test_evaluate_of_both_label_kinds_names_the_fault_kind_flag(tmp_path, capsys):
    series = tmp_path / "series.csv"
    write_series_csv(series, [Series("n1", Modality.SOIL_MOISTURE, 0.0, 600.0,
                                     np.linspace(0.2, 0.3, 288))])
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 5, "inject": {
        "base_sigma": 0.01, "noise_burst_lengths": [12, 30], "noise_total_fraction": 0.2}})
    inj_dir = tmp_path / "inj"
    assert main(["inject", "--config", cfg, "--in", str(series), "--kind", "both",
                 "--out", str(inj_dir)]) == 0
    (tmp_path / "events.csv").write_text("start,end\n6000,12000\n")
    (tmp_path / "flags.csv").write_text("index,flag_source\n3,short\n")
    argv = ["evaluate", "--in", str(inj_dir / "faulted.csv"), "--flags",
            str(tmp_path / "flags.csv"), "--events", str(tmp_path / "events.csv"),
            "--labels", str(inj_dir / "faulted.labels.json"), "--out", str(tmp_path / "ev")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == ("config error: labels hold both fault kinds; "
                                       "pass --fault-kind (kind=) to pick one\n")
    assert list((tmp_path / "ev").iterdir()) == []
    assert main([*argv, "--fault-kind", "short"]) == 0
    assert json.loads((tmp_path / "ev" / "report.json").read_text())["fault_kind"] == "short"


def test_numeric_failure_exits_4(tmp_path, capsys):
    huge = np.array([1e300, -1e300, 1e300, -1e300, 1e300, -1e300])
    series = tmp_path / "series.csv"
    write_series_csv(series, [
        Series("t", Modality.SOIL_MOISTURE, 0.0, 600.0, np.linspace(0.2, 0.3, 6)),
        Series("a", Modality.SOIL_MOISTURE, 0.0, 600.0, huge),
        Series("b", Modality.SOIL_MOISTURE, 0.0, 600.0, np.linspace(0.1, 0.4, 6)),
    ])
    assert main(["train", "--detector", "llse", "--in", str(series),
                 "--target", "t", "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("numeric error:")


def no_series_work(monkeypatch):
    """Make any ingest or generation of a series fail the test."""
    def never(*args, **kwargs):
        raise AssertionError("a series was ingested or generated before a cheap check")

    monkeypatch.setattr(fio, "ingest_csv", never)
    monkeypatch.setattr(pipeline, "gen_deployment", never)


def test_out_at_a_file_exits_2(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 3, "synth": SYNTH_SMALL, "detector": "short",
                                            "grid": [0.5], "inject": {"kind": "short"}})
    site = tmp_path / "site"
    assert main(["synth", "--config", cfg, "--out", str(site)]) == 0
    assert main(["detect", "--in", str(site / "series.csv"), "--detector", "short",
                 "--delta", "0.01", "--modality", "box_temp", "--out", str(site)]) == 0
    no_series_work(monkeypatch)
    series = ["--in", str(site / "series.csv"), "--modality", "box_temp"]
    commands = [
        ["synth", "--config", cfg],
        ["inject", "--config", cfg, *series],
        ["train", "--detector", "short", "--delta", "0.05"],
        ["detect", "--detector", "short", "--delta", "0.01", *series],
        ["evaluate", *series, "--flags", str(site / "flags.csv"),
         "--events", str(site / "events.csv")],
        ["sweep", "--config", cfg],
    ]
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    capsys.readouterr()
    for argv in commands:
        for out in (afile, afile / "x"):
            assert main([*argv, "--out", str(out)]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"config error: --out {out}: not a usable directory (")
            assert len(err.splitlines()) == 1
    assert afile.read_text() == "not a directory\n"



def test_output_file_at_a_directory_exits_2(tmp_path, capsys):
    # A run into a directory holding an earlier run's outputs, with a
    # directory at any one output's path or at its temporary path, writes
    # none of its outputs.
    for command, argv in command_argvs(tmp_path).items():
        for k, name in enumerate(OUTPUTS[command]):
            out = tmp_path / f"out_{command}_{k}"
            assert main([*argv, "--out", str(out)]) == 0
            (out / name).unlink()
            for directory in (name, f".{name}.tmp"):
                (out / directory).mkdir()
                before = snapshot(out)
                capsys.readouterr()
                assert main([*argv, "--seed", "4", "--out", str(out)]) == 2, (argv, directory)
                captured = capsys.readouterr()
                assert captured.err.startswith(f"config error: {out / name}: cannot write (")
                assert len(captured.err.splitlines()) == 1 and captured.out == ""
                assert snapshot(out) == before, (argv, directory)
                (out / directory).rmdir()


@pytest.mark.parametrize("error", [DataError("disk full"), KeyboardInterrupt()])
def test_a_writer_failing_mid_file_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, error):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 11, "synth": SYNTH_SMALL})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    before = snapshot(out)

    def partial(path, events):
        with open(path, "w") as fh:
            fh.write("start,end\n3600,")
        raise error

    monkeypatch.setattr(cli, "write_events_csv", partial)
    # A killed run's temporary file of an output written after events.csv
    # goes too.
    (out / ".schedule.json.tmp").write_text("{")
    capsys.readouterr()
    argv = ["synth", "--config", cfg, "--seed", "12", "--out", str(out)]
    if isinstance(error, KeyboardInterrupt):
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 3
        assert capsys.readouterr().err == "data error: disk full\n"
    assert capsys.readouterr().out == ""
    assert snapshot(out) == before
    assert list(out.glob(".*.tmp")) == []


def test_sweep_unwritable_report_removes_partial_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "cfg.json", {
        "seed": 5,
        "synth": {"train_days": 1, "test_days": 2, "n_events": 2, "interval_s": 600},
        "detector": "short",
        "grid": [0.5, 2.0],
        "inject": {"kind": "short"}})
    out = tmp_path / "out"
    (out / "report_001.json").mkdir(parents=True)
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in out.iterdir()] == ["report_001.json"]


@pytest.mark.parametrize("case, code, message", [
    ("detect short, no delta", 2, "short detection needs --delta, config 'delta', or --model"),
    ("detect noise, no model", 2, "noise detection needs --model with a noise model"),
    ("detect noise, no multiplier", 2,
     "noise detection needs --multiplier or config 'multiplier'"),
    ("train noise, bad window", 2, "noise_window_len must be a finite number"),
    ("train llse, bad vote_q", 2, "llse.vote_q must be a finite number"),
    ("evaluate, no events file", 3, "absent.csv: cannot read ("),
    ("evaluate, two flag sources", 3, "expected flags from exactly one detector"),
    ("evaluate, fractional label", 3, "integer within int64"),
    ("inject, unknown kind", 2, "inject.kind must be short, noise, or both"),
    ("inject, bad short_fraction", 2, "inject.short_fraction must be a number"),
    ("inject, one-sample bursts", 2, "burst lengths must be integers >= 2"),
    ("inject, bad base_sigma", 2, "inject.base_sigma must be a finite number"),
    ("inject noise, no base_sigma", 2, "noise injection needs inject.base_sigma"),
    ("sweep, bad inject", 2, "inject.short_fraction must be a number"),
    ("data sweep, no events file", 3, "absent.csv: cannot read ("),
    ("data sweep, no labels file", 3, "absent.json: cannot read ("),
])
def test_cheap_errors_come_before_any_series_work(tmp_path, capsys, monkeypatch,
                                                  case, code, message):
    series, events, flags = write_site(tmp_path)
    model = tmp_path / "noise.json"
    model.write_text(NOISE_MODEL + '"window_len": 4}')
    two_sources = tmp_path / "two.csv"
    two_sources.write_text("index,flag_source\n3,short\n5,noise\n")
    labels = tmp_path / "labels.json"
    labels.write_text('{"short": [1.7]}')
    node = ["--in", series, "--node", "n1"]

    configs = itertools.count()

    def inject(block):
        return ["inject", *node, "--config",
                write_cfg(tmp_path / f"inject{next(configs)}.cfg.json", {"inject": block})]

    def data_sweep(**paths):
        data = {"train_csv": series, "test_csv": series, "events_csv": events, "node_id": "n1"}
        return ["sweep", "--config", write_cfg(tmp_path / f"data{next(configs)}.cfg.json", {
            "detector": "short", "grid": [0.1], "smooth": False, "data": data | paths})]

    argv = {
        "detect short, no delta": ["detect", *node, "--detector", "short"],
        "detect noise, no model": ["detect", *node, "--detector", "noise", "--multiplier", "2"],
        "detect noise, no multiplier": ["detect", *node, "--detector", "noise",
                                        "--model", str(model)],
        "train noise, bad window": ["train", "--detector", "noise", *node, "--config",
                                    write_cfg(tmp_path / "noise.cfg.json", {"noise_window_len": "x"})],
        "train llse, bad vote_q": ["train", "--detector", "llse", "--in", series,
                                   "--target", "n1", "--config",
                                   write_cfg(tmp_path / "llse.cfg.json", {"llse": {"vote_q": "x"}})],
        "evaluate, no events file": ["evaluate", *node, "--flags", flags,
                                     "--events", str(tmp_path / "absent.csv")],
        "evaluate, two flag sources": ["evaluate", *node, "--flags", str(two_sources),
                                       "--events", events],
        "evaluate, fractional label": ["evaluate", *node, "--flags", flags, "--events", events,
                                       "--labels", str(labels)],
        "inject, unknown kind": inject({"kind": "spike"}),
        "inject, bad short_fraction": inject({"kind": "short", "short_fraction": "x"}),
        "inject, one-sample bursts": inject({"kind": "noise", "base_sigma": 0.01,
                                             "noise_burst_lengths": [1]}),
        "inject, bad base_sigma": inject({"kind": "noise", "base_sigma": "x"}),
        "inject noise, no base_sigma": ["inject", *node, "--kind", "noise"],
        "sweep, bad inject": ["sweep", "--config", write_cfg(
            tmp_path / "sweep.cfg.json", {"synth": SYNTH_SMALL, "detector": "short", "grid": [0.1],
                                          "inject": {"kind": "short", "short_fraction": "x"}})],
        "data sweep, no events file": data_sweep(events_csv=str(tmp_path / "absent.csv")),
        "data sweep, no labels file": data_sweep(labels_json=str(tmp_path / "absent.json")),
    }[case]
    no_series_work(monkeypatch)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    prefix = {2: "config error: ", 3: "data error: "}[code]
    assert len(err) == 1 and err[0].startswith(prefix) and message in err[0]
    assert list(out.iterdir()) == []


def test_modality_filter_on_synth_output(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 2, "synth": SYNTH_SMALL})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--modality", "box_temp",
                 "--out", str(out)]) == 0
    text = (out / "series.csv").read_text()
    assert "box_temp" in text and "soil_moisture" not in text


def test_schedule_json_lists_all_events(tmp_path):
    cfg = write_cfg(tmp_path / "cfg.json", {"seed": 11, "synth": SYNTH_SMALL})
    out = tmp_path / "out"
    main(["synth", "--config", cfg, "--out", str(out)])
    doc = json.loads((out / "schedule.json").read_text())
    # 1 training event + 2 test events; only the 2 test windows go to events.csv
    assert len(doc["schedule"]) == 3
    events_lines = (out / "events.csv").read_text().splitlines()
    assert len(events_lines) == 3
    for ev in doc["schedule"]:
        assert ev["start"] < ev["end"] and ev["rain_mm"] > 0


def write_site(tmp_path, n=144):
    """Three soil-moisture nodes of `n` samples, one event, one short flag."""
    rng = np.random.default_rng(5)
    series = tmp_path / "site.csv"
    write_series_csv(series, [
        Series(node, Modality.SOIL_MOISTURE, 0.0, 600.0, rng.normal(0.2, 0.01, size=n))
        for node in ("n1", "n2", "n3")])
    events = tmp_path / "events.csv"
    events.write_text("start,end\n3600,7200\n")
    flags = tmp_path / "flags.csv"
    flags.write_text("index,flag_source\n7,short\n")
    return str(series), str(events), str(flags)


@pytest.mark.parametrize("index", [144, -1])
def test_evaluate_rejects_flags_outside_the_series(tmp_path, capsys, index):
    series, events, _ = write_site(tmp_path)
    flags = tmp_path / "bad_flags.csv"
    flags.write_text(f"index,flag_source\n{index},short\n")
    out = tmp_path / "out"
    assert main(["evaluate", "--in", series, "--node", "n1", "--flags", str(flags),
                 "--events", events, "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("doc", [{"short": [5000], "noise": []}, [5000]])
def test_evaluate_rejects_labels_outside_the_series(tmp_path, capsys, doc):
    series, events, flags = write_site(tmp_path)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["evaluate", "--in", series, "--node", "n1", "--flags", flags,
                 "--events", events, "--labels", str(labels), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (out / "report.json").exists()


def test_sweep_rejects_labels_on_smoothed_data(tmp_path, capsys):
    series, events, _ = write_site(tmp_path)
    labels = tmp_path / "labels.json"
    labels.write_text(json.dumps({"short": [100], "noise": []}))
    data = {"train_csv": series, "test_csv": series, "events_csv": events,
            "labels_json": str(labels), "node_id": "n1"}
    cfg = {"detector": "short", "grid": [0.01], "data": data, "modality": "soil_moisture"}
    out = tmp_path / "out"
    assert main(["sweep", "--config", write_cfg(tmp_path / "smooth.json", cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    # Unsmoothed, the same labels fit the series and the sweep scores them.
    assert main(["sweep", "--config", write_cfg(tmp_path / "raw.json", cfg | {"smooth": False}),
                 "--out", str(out)]) == 0
    assert json.loads((out / "report_000.json").read_text())["fault_kind"] == "short"


@pytest.mark.parametrize("command, cfg", [
    ("inject", {"modality": "bogus", "inject": {"kind": "short"}}),
    ("evaluate", {"modality": "bogus"}),
    ("synth", {"seed": True, "synth": SYNTH_SMALL}),
    ("sweep", {"seed": True, "synth": SYNTH_SMALL, "detector": "short", "grid": [0.1]}),
    ("inject", {"inject": []}),
    ("inject", {"inject": {"kind": "short", "short_fraction": "x"}}),
    ("sweep", {"synth": {"train_days": "x"}, "detector": "short", "grid": [0.1]}),
    ("train noise", {"noise_window_len": "x"}),
    ("train llse", {"llse": {"vote_q": "x"}}),
    ("synth", {"synth": SYNTH_SMALL | {"interval_s": True}}),
    ("inject", {"inject": {"kind": "short", "short_fraction": True}}),
    ("synth", {"synth": SYNTH_SMALL | {"box": {"recovery_s": float("nan")}}}),
    ("synth", {"synth": SYNTH_SMALL | {"box": {"recovery_s": float("inf")}}}),
    ("synth", {"synth": SYNTH_SMALL | {"box": {"mean_c": float("nan")}}}),
    ("synth", {"synth": SYNTH_SMALL | {"soil": {"decay_tau_s": float("inf")}}}),
    ("synth", {"synth": SYNTH_SMALL | {"nodes": [{"id": "node1", "lag_s": "nan"}]}}),
    ("sweep", {"synth": SYNTH_SMALL, "smooth": "false", "detector": "short", "grid": [0.1]}),
    ("train llse", {"llse": {"signed": "false"}}),
    ("synth", {"synth": {"test_days": 1e15, "n_events": 0}}),
    ("synth", {"synth": {"interval_s": 1e-320, "test_days": 1, "n_events": 0}}),
    ("synth", {"synth": {"interval_s": 5e-324, "test_days": 1, "n_events": 0}}),
    ("synth", {"synth": {"interval_s": 1e300, "n_events": 0}}),
    # Profiles whose values overflow: an infinite rise times a decay that
    # underflows to 0, and noise past the float range.
    ("synth", {"synth": {"test_days": 2, "n_events": 1,
                         "soil": {"spike_gain_vwc_per_mm": 1e308, "decay_tau_s": 1}}}),
    ("synth", {"synth": {"test_days": 2, "n_events": 1, "box": {"noise_sigma_c": 1e308}}}),
])
def test_malformed_config_values_exit_2(tmp_path, capsys, command, cfg):
    series, events, flags = write_site(tmp_path)
    node = ["--in", series, "--node", "n1"]
    argv = {
        "synth": ["synth"],
        "sweep": ["sweep"],
        "inject": ["inject", *node],
        "evaluate": ["evaluate", *node, "--flags", flags, "--events", events],
        "train noise": ["train", "--detector", "noise", *node],
        "train llse": ["train", "--detector", "llse", "--in", series, "--target", "n1"],
    }[command]
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path / "cfg.json", cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:")
    assert not out.exists() or list(out.iterdir()) == []


def test_an_infinite_soil_rise_clamps_to_1(tmp_path):
    """With the default tau no tail underflows, so an infinite rise stays
    infinite through the decay and clamps to 1 instead of being refused."""
    cfg = write_cfg(tmp_path / "cfg.json", {"synth": {
        "test_days": 2, "n_events": 1, "soil": {"spike_gain_vwc_per_mm": 1e308}}})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--modality", "soil_moisture",
                 "--out", str(out)]) == 0
    start = float((out / "events.csv").read_text().splitlines()[1].split(",")[0])
    rows = [row.split(",") for row in (out / "series.csv").read_text().splitlines()[1:]]
    after = [float(v) for ts, _, _, v in rows if float(ts) >= start]
    assert after and set(after) == {1.0}


def test_oversized_synth_grid_is_refused_before_events_are_drawn(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("events drawn for a grid that is refused")

    monkeypatch.setattr(pipeline, "make_event_schedule", never)
    cfg = write_cfg(tmp_path / "cfg.json",
                    {"synth": {"test_days": 10_000_000, "n_events": 200_000}})
    out = tmp_path / "out"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error:") and "exceeds" in err[0]
    assert not out.exists() or list(out.iterdir()) == []


def test_llse_model_with_non_boolean_signed_exits_3(tmp_path, capsys):
    series, _, _ = write_site(tmp_path)
    model = LlseModel("n1", (NeighborFit("n2", 0.0, 1.0, 0.1),
                             NeighborFit("n3", 0.0, 1.0, 0.1)), 95.0, 2)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model) | {"signed": "false"}))
    out = tmp_path / "out"
    assert main(["detect", "--in", series, "--detector", "llse", "--model", str(path),
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not (out / "flags.csv").exists()


NOISE_MODEL = '{"version": 1, "kind": "noise", "sigma_train": 0.01, "sigma_hist_spread": 0.001, '
LLSE_MODEL = json.dumps(model_to_dict(LlseModel("n1", (NeighborFit("n2", 0.0, 1.0, 0.1),),
                                                95.0, 1)))
LLSE_PAIR_MODEL = json.dumps(model_to_dict(LlseModel(
    "n1", (NeighborFit("n2", 0.0, 1.0, 0.1), NeighborFit("n3", 0.0, 1.0, 0.1)), 95.0, 2)))


@pytest.mark.parametrize("kind, text, message", [
    ("events", "start,end\n3600\n", "input.csv:2: malformed row"),
    ("flags", "index,flag_source\n99999999999999999999999,short\n", "input.csv:2: malformed row"),
    ("labels", '{"short": [1e400]}', "integer within int64"),
    ("labels", '{"short": "12"}', "must be a list"),
    ("labels", '{"short": [1.7]}', "integer within int64"),
    ("labels", '{"short": [true]}', "must be a number"),
    ("labels", '{"shrot": [3]}', "unknown keys ['shrot']"),
    ("labels", '{"noise": [{"start": 3, "len": 4, "end": 7}]}', "unknown keys ['end']"),
    ("noise model", NOISE_MODEL + '"window_len": 1e400}', "integer within int64"),
    ("noise model", NOISE_MODEL + '"window_len": 2.9}', "integer within int64"),
    ("noise model", NOISE_MODEL + '"window_len": 4, "windowlen": 4}', "unknown keys"),
    ("short model", '{"version": 1, "kind": "short", "delta": "0.5"}', "must be a number"),
    ("short model", '{"version": 1, "kind": "short", "delta": -1}',
     "short model: delta must be a finite value > 0"),
    ("noise model", NOISE_MODEL + '"window_len": 1}', "noise model: window_len must be"),
    ("llse model", LLSE_MODEL.replace('"percentile_p": 95.0', '"percentile_p": 150'),
     "llse model: percentile_p must lie in (0, 100)"),
    ("llse model", LLSE_MODEL.replace('"target": "n1"', '"target": null'),
     "llse model node ids must be non-empty strings, got None"),
    ("llse model", LLSE_MODEL.replace('"target": "n1"', '"target": ""'),
     "llse model node ids must be non-empty strings, got ''"),
    ("llse model", LLSE_MODEL.replace('"node_id": "n2"', '"node_id": 7'),
     "llse model node ids must be non-empty strings, got 7"),
    ("llse model", LLSE_MODEL.replace('"target": "n1"', '"target": "n2"'),
     "llse model: target and neighbor node ids must be distinct, got ['n2', 'n2']"),
    ("llse model", LLSE_PAIR_MODEL.replace('"n3"', '"n2"'),
     "llse model: target and neighbor node ids must be distinct, got ['n1', 'n2', 'n2']"),
    ("series", "# a\n# b\ntimestamp,node_id,modality,value\n0,n1,box_temp,1\n\n"
               "bad,n1,box_temp,2\n", "input.csv:6: malformed row"),
])
def test_malformed_data_files_exit_3(tmp_path, capsys, kind, text, message):
    series, events, flags = write_site(tmp_path)
    bad = tmp_path / ("input.json" if kind.endswith(("labels", "model")) else "input.csv")
    bad.write_text(text)
    node = ["--in", series, "--node", "n1"]
    argv = {
        "events": ["evaluate", *node, "--flags", flags, "--events", str(bad)],
        "flags": ["evaluate", *node, "--flags", str(bad), "--events", events],
        "labels": ["evaluate", *node, "--flags", flags, "--events", events,
                   "--labels", str(bad), "--fault-kind", "short"],
        "noise model": ["detect", *node, "--detector", "noise", "--model", str(bad),
                        "--multiplier", "2"],
        "short model": ["detect", *node, "--detector", "short", "--model", str(bad)],
        "llse model": ["detect", "--in", series, "--detector", "llse", "--model", str(bad)],
        "series": ["detect", "--in", str(bad), "--detector", "short", "--delta", "1"],
    }[kind]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:") and message in err[0]
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("stamp", ["2025-04-16T00:00:00\x00", "2025-04-16\x0000:00:00"])
@pytest.mark.parametrize("kind", ["series", "events"])
def test_a_nul_in_an_iso_stamp_exits_3(tmp_path, capsys, kind, stamp):
    """Neither stamp is in the stamp grammar, though `datetime.fromisoformat`
    reads both as 2025-04-16T00:00:00; Python 3.11's csv module lets the NUL
    through, and 3.10's refuses it, so either way the row is malformed."""
    series, _, flags = write_site(tmp_path)
    bad = tmp_path / "input.csv"
    if kind == "series":
        bad.write_text("timestamp,node_id,modality,value\n" + f"{stamp},n1,box_temp,1\n"
                       + "".join(f"2025-04-16T00:{m}0:00,n1,box_temp,1\n" for m in (1, 2)))
        argv = ["detect", "--in", str(bad), "--detector", "short", "--delta", "1"]
    else:
        bad.write_text(f"start,end\n{stamp},2025-04-16T01:00:00\n")
        argv = ["evaluate", "--in", series, "--node", "n1", "--flags", flags,
                "--events", str(bad)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"data error: {bad}:2: malformed row")
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("stamp", [
    # Python 3.11 and later read these five as 2025-04-16T00:00:00 or half a
    # second after it,
    "2025-04-16T02:00:00+0200", "2025-04-16T00:00:00.5", "2025-04-16T00:00:00,5",
    "20250416T000000", "2025-W16-3",
    # and every Python reads any character between the date and the time.
    "2025-04-16X00:00", "2025-04-16+00:00", "2025-04-16_00:00"])
@pytest.mark.parametrize("kind", ["series", "events"])
def test_stamps_outside_the_grammar_exit_3_on_every_python(tmp_path, capsys, kind, stamp):
    series, _, flags = write_site(tmp_path)
    bad, quoted = tmp_path / "input.csv", f'"{stamp}"'  # a comma stays in its cell
    if kind == "series":
        bad.write_text("timestamp,node_id,modality,value\n" + f"{quoted},n1,box_temp,1\n"
                       + "".join(f"2025-04-16T00:{m}0:00,n1,box_temp,1\n" for m in (1, 2)))
        argv = ["detect", "--in", str(bad), "--detector", "short", "--delta", "1"]
    else:
        bad.write_text(f"start,end\n{quoted},2025-04-16T01:00:00\n")
        argv = ["evaluate", "--in", series, "--node", "n1", "--flags", flags,
                "--events", str(bad)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == f"data error: {bad}:2: malformed row\n"


@pytest.mark.parametrize("labels_json", [0, False, "", [], {}, None])
def test_labels_json_is_a_path_or_null(tmp_path, capsys, labels_json):
    """A falsy value of the wrong type exits 2; null reads as no labels."""
    series, events, _ = write_site(tmp_path)
    data = {"train_csv": series, "test_csv": series, "events_csv": events,
            "labels_json": labels_json, "node_id": "n1"}
    cfg = {"detector": "short", "grid": [0.01], "data": data, "modality": "soil_moisture",
           "smooth": False}
    out = tmp_path / "out"
    rc = main(["sweep", "--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", str(out)])
    err = capsys.readouterr().err
    if labels_json is None:
        assert (rc, err) == (0, "")
        assert "fault_kind" not in json.loads((out / "report_000.json").read_text())
    else:
        assert (rc, err) == (2, f"config error: data.labels_json must be a path, "
                                f"got {labels_json!r}\n")


@pytest.mark.parametrize("node_id", [True, 0, [], {}, ""])
def test_node_id_of_the_wrong_type_exits_2_before_any_csv_is_read(tmp_path, capsys, node_id):
    """Not a node named `True` or `0`: the files named do not exist, and are not opened."""
    data = {"train_csv": "absent.csv", "test_csv": "absent.csv", "events_csv": "absent.csv",
            "node_id": node_id}
    cfg = {"detector": "short", "grid": [0.01], "data": data, "modality": "soil_moisture"}
    rc = main(["sweep", "--config", write_cfg(tmp_path / "cfg.json", cfg),
               "--out", str(tmp_path / "out")])
    assert (rc, capsys.readouterr().err) == (
        2, f"config error: data.node_id must be a non-empty string, got {node_id!r}\n")


def _rows(*series):
    return [f"{t},{node},{mod},1.0" for node, mod, times in series for t in times]


DATA_SWEEP = {"detector": "short", "grid": [1.0], "data": {
    "train_csv": "a.csv", "test_csv": "b.csv", "events_csv": "c.csv"}}

# case: (argv, config, exit code, part of the one stderr line)
ERROR_CONTRACTS = {
    "two nodes, no --node": (
        ["inject", "--kind", "short", "--in", "two_nodes.csv"], {}, 2,
        "holds nodes ['n1', 'n2']; pick one with --node"),
    "both modalities, no --modality": (
        ["inject", "--kind", "short", "--in", "two_modalities.csv", "--node", "n1"], {}, 2,
        "node 'n1' holds several modalities; pick one with --modality"),
    "an unknown node, no --modality": (
        ["detect", "--detector", "short", "--delta", "0.1", "--in", "two_modalities.csv",
         "--node", "n9"], {}, 3, "two_modalities.csv: no series for node 'n9'\n"),
    "an unknown llse target, no --modality": (
        ["train", "--detector", "llse", "--in", "two_modalities.csv", "--target", "n9"], {}, 3,
        "two_modalities.csv: no series for node 'n9'\n"),
    "a gap of more than 3 samples": (
        ["inject", "--kind", "short", "--in", "gap.csv"], {}, 3, "split by long gaps"),
    "llse without --target": (
        ["train", "--detector", "llse", "--in", "two_nodes.csv"], {}, 2, "needs --target"),
    "llse on one node": (
        ["train", "--detector", "llse", "--in", "one_node.csv", "--target", "n1"], {}, 3,
        "fit_llse_model needs at least one neighbor series"),
    "config version 2": (["synth"], {"version": 2}, 2, "unsupported config version 2"),
    "a synth node without id": (
        ["synth"], {"synth": {"nodes": [{"lag_s": 0}]}}, 2, "each synth node needs an 'id'"),
    "synth.test_days 0": (["synth"], {"synth": {"test_days": 0}}, 2, "test_days >= 1"),
    "a data sweep without node_id": (["sweep"], DATA_SWEEP, 2, "data config needs node_id"),
    "a NUL in a data path": (
        ["sweep"], DATA_SWEEP | {"data": {
            "train_csv": "a\0", "test_csv": "b.csv", "events_csv": "events.csv", "node_id": "n1"}},
        3, "a\\x00: cannot read (embedded null byte)"),
    "a data sweep reads its events before its series": (
        ["sweep"], DATA_SWEEP | {"data": {
            "train_csv": "gap.csv", "test_csv": "gap.csv", "events_csv": "c.csv", "node_id": "n1"}},
        3, "c.csv: cannot read"),
    "a data sweep reads its labels before its series": (
        ["sweep"], DATA_SWEEP | {"smooth": False, "data": {
            "train_csv": "gap.csv", "test_csv": "gap.csv", "events_csv": "events.csv",
            "node_id": "n1", "labels_json": "absent.json"}}, 3, "absent.json: cannot read"),
    "a NUL in labels_json": (
        ["sweep"], DATA_SWEEP | {"smooth": False, "data": {
            "train_csv": "one_node.csv", "test_csv": "one_node.csv", "events_csv": "events.csv",
            "node_id": "n1", "labels_json": "l\0"}}, 3, "l\\x00: cannot read (embedded null byte)"),
    "a line break in --in": (
        ["detect", "--in", "a\nb.csv", "--detector", "short", "--delta", "0.1"], {}, 3,
        "a\\nb.csv: cannot read"),
    "a data sweep with labels_json 5": (
        ["sweep"], DATA_SWEEP | {"data": DATA_SWEEP["data"] | {"node_id": "n1", "labels_json": 5}},
        2, "data.labels_json must be a path, got 5"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CONTRACTS))
def test_error_contracts_exit_with_one_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    grid = [k * 600 for k in range(40)]
    header = "timestamp,node_id,modality,value\n"
    for name, series in (
            ("one_node.csv", [("n1", "box_temp", grid)]),
            ("two_nodes.csv", [("n1", "box_temp", grid), ("n2", "box_temp", grid)]),
            ("two_modalities.csv", [("n1", "box_temp", grid), ("n1", "soil_moisture", grid)]),
            ("gap.csv", [("n1", "box_temp", grid[:10] + grid[15:])])):
        (tmp_path / name).write_text(header + "\n".join(_rows(*series)) + "\n")
    (tmp_path / "events.csv").write_text("start,end\n")
    argv, cfg, code, text = ERROR_CONTRACTS[case]
    assert main([*argv, "--config", write_cfg(tmp_path / "cfg.json", cfg), "--out", "out"]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error: " if code == 2 else "data error: ")
    assert len(err.splitlines()) == 1 and text in err
