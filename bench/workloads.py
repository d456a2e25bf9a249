"""The benchmark's three workloads.

Each workload writes its inputs from the seed (`make_inputs`), runs one pass
of faultlab operations (`run_pass`, the timed part), and checks a pass's
outputs against oracles computed apart from the program (`check`, untimed).
`prepare` builds, once per run, the oracle values that depend only on the
inputs. CLI commands run in-process through `faultlab.cli.main`, so no pass
pays for starting an interpreter.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter

import numpy as np

import fieldgen
import oracle
from oracle import expect

SOIL = "soil_moisture"


class Ops:
    """Operations of one pass: counts, failures, results and sweep time."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.sweep_s = 0.0
        self.results: dict[str, object] = {}
        self.errors: list[str] = []

    def cli(self, *argv: str, expect_rc: int = 0) -> None:
        import faultlab.cli

        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = faultlab.cli.main(list(argv))
            except Exception as exc:  # the console script would exit 1 with a traceback
                rc = 1
                sink.write(f"{type(exc).__name__}: {exc}")
        if argv[0] == "sweep":
            self.sweep_s += perf_counter() - t0
        self._count(rc == expect_rc, f"faultlab {' '.join(argv)}: exit {rc}, "
                                     f"want {expect_rc}: {sink.getvalue()[-300:]}")

    def call(self, key: str, fn, *args) -> None:
        try:
            self.results[key] = fn(*args)
            ok, msg = True, ""
        except Exception as exc:
            ok, msg = False, f"{key}: {type(exc).__name__}: {exc}"
        self._count(ok, msg)

    def _count(self, ok: bool, msg: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(msg)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _labels_doc(labels) -> dict | None:
    if labels is None:
        return None
    return {"short": list(labels.short_indices), "noise": list(labels.noise_windows)}


def sweep_oracle(config: dict, seed: int) -> list[tuple]:
    """Expected sweep rows, from the series the sweep materializes."""
    from faultlab.pipeline import materialize
    from faultlab.series import Modality

    run = materialize(config, seed, Modality(SOIL))
    test = run.test
    times = oracle.sample_times(test.start_time, test.sample_interval, len(test))
    return oracle.sweep_expected(
        config["detector"], config["grid"], test.values, times, run.train.values,
        config.get("noise_window_len", 18), [(e.start, e.end) for e in run.events],
        _labels_doc(run.labels))


def check_llse(d: Path, site: dict, events) -> None:
    """The llse model, flags and report in `d`, against the soil series in `site`."""
    model = json.loads((d / "model.json").read_text())
    flags = oracle.llse_expected(model, {node: v for (node, _), (_, _, v) in site.items()})
    oracle.check_flags(d / "flags.csv", "llse", flags)
    t0, dt, _ = site[(model["target"], SOIL)]
    oracle.check_report(d / "report.json", oracle.score(
        oracle.sample_times(t0, dt, flags.size), flags, events, None, None))


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.inp = work / "in"
        self.out = work / "pass"
        self.seed = seed
        self.inp.mkdir(parents=True, exist_ok=True)

    def make_inputs(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracle values that depend only on the inputs."""

    def run_pass(self, ops: Ops) -> None:
        raise NotImplementedError

    def check(self, ops: Ops) -> None:
        raise NotImplementedError


TRIO = {"train_days": 0, "test_days": 30, "n_events": 6, "interval_s": 600,
        "nodes": [{"id": "n1"}, {"id": "n2", "lag_s": 600},
                  {"id": "n3", "response_scale": 0.3}]}


class StudySweep(Workload):
    """The paper's experiment: a short and a noise sweep over a synthetic year.

    Synth, detection, scoring and the sweep loop do most of the work; the
    only CSVs are the small three-node llse walk at the end.
    """

    name = "study-sweep"
    SYNTH = {"train_days": 30, "test_days": 335, "n_events": 90, "train_events": 8,
             "interval_s": 180,
             "nodes": [{"id": "n1"}, {"id": "n2", "response_scale": 0.7, "lag_s": 600},
                       {"id": "n3", "response_scale": 1.3, "lag_s": 1200}]}
    SHORT_GRID = [0.002, 0.004, 0.006, 0.008, 0.01, 0.015, 0.02, 0.03, 0.05, 0.08,
                  0.12, 0.2]
    NOISE_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0]

    def configs(self) -> dict[str, dict]:
        return {
            "short": {"seed": self.seed, "synth": self.SYNTH, "detector": "short",
                      "grid": self.SHORT_GRID,
                      "inject": {"kind": "short", "short_intensity": 0.2}},
            "noise": {"seed": self.seed, "synth": self.SYNTH, "detector": "noise",
                      "grid": self.NOISE_GRID,
                      "inject": {"kind": "noise", "noise_multiplier": 3.0}},
        }

    def make_inputs(self) -> None:
        for kind, cfg in self.configs().items():
            _write_json(self.inp / f"sweep_{kind}.json", cfg)
        _write_json(self.inp / "trio.json", {"seed": self.seed, "synth": TRIO})

    def prepare(self) -> None:
        self.expected = {kind: sweep_oracle(cfg, self.seed)
                         for kind, cfg in self.configs().items()}

    def _llse_walk(self, ops: Ops, d: Path, config: Path) -> None:
        """synth, train llse, detect llse and evaluate on a three-node file."""
        series = d / "series.csv"
        ops.cli("synth", "--config", str(config), "--modality", SOIL, "--out", str(d))
        ops.cli("train", "--detector", "llse", "--in", str(series), "--target", "n1",
                "--modality", SOIL, "--out", str(d))
        ops.cli("detect", "--in", str(series), "--detector", "llse", "--model",
                str(d / "model.json"), "--modality", SOIL, "--out", str(d))
        ops.cli("evaluate", "--in", str(series), "--node", "n1", "--modality", SOIL,
                "--flags", str(d / "flags.csv"), "--events", str(d / "events.csv"),
                "--out", str(d))

    def run_pass(self, ops: Ops) -> None:
        for kind in ("short", "noise"):
            ops.cli("sweep", "--config", str(self.inp / f"sweep_{kind}.json"),
                    "--modality", SOIL, "--out", str(self.out / f"sweep_{kind}"))
        self._llse_walk(ops, self.out / "trio", self.inp / "trio.json")

    def check(self, ops: Ops) -> None:
        for kind, rows in self.expected.items():
            oracle.check_sweep_csv(self.out / f"sweep_{kind}" / "sweep.csv", rows)
        trio = self.out / "trio"
        check_llse(trio, oracle.read_series(trio / "series.csv"),
                   oracle.read_events(trio / "events.csv"))


class CliWalkthrough(Workload):
    """The README walkthrough on a three-node season, run command by command.

    Every command reads a CSV the one before it wrote, so CSV write and
    ingest dominate; the detectors work on one 70-day series. Two hostile
    `evaluate` calls on fixed inputs end each pass.
    """

    name = "cli-walkthrough"
    SITE = {"train_days": 20, "test_days": 50, "n_events": 12, "train_events": 3,
            "interval_s": 600,
            "nodes": [{"id": "n1"}, {"id": "n2", "response_scale": 0.8, "lag_s": 600},
                      {"id": "n3", "response_scale": 0.3, "lag_s": 1200}]}
    NOISE_GRID = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    HOSTILE_N = 144

    def make_inputs(self) -> None:
        p = self.out
        _write_json(self.inp / "site.json", {
            "seed": self.seed, "synth": self.SITE,
            "inject": {"kind": "short", "short_intensity": 0.2}})
        _write_json(self.inp / "noise.json", {
            "seed": self.seed,
            "inject": {"kind": "noise", "base_sigma": 0.003, "noise_multiplier": 3.0}})
        _write_json(self.inp / "sweep.json", {
            "seed": self.seed, "smooth": False, "detector": "noise",
            "grid": self.NOISE_GRID,
            "data": {"train_csv": str(p / "site" / "series.csv"),
                     "test_csv": str(p / "noise" / "faulted.csv"),
                     "events_csv": str(p / "site" / "events.csv"),
                     "labels_json": str(p / "noise" / "faulted.labels.json"),
                     "node_id": "n1"}})
        # Hostile inputs are fixed: the same on every seed.
        h = self.inp / "hostile"
        h.mkdir(exist_ok=True)
        (h / "series.csv").write_text("timestamp,node_id,modality,value\n" + "".join(
            f"{600 * k},h1,{SOIL},{0.2 + 0.001 * (k % 7)!r}\n"
            for k in range(self.HOSTILE_N)))
        (h / "events.csv").write_text("start,end\n3600,7200\n")
        (h / "flags_past_end.csv").write_text(f"index,flag_source\n{self.HOSTILE_N},short\n")
        (h / "flags_negative.csv").write_text("index,flag_source\n-1,short\n")

    def run_pass(self, ops: Ops) -> None:
        p, site = self.out, self.out / "site"
        series, events = str(site / "series.csv"), str(site / "events.csv")
        node = ("--node", "n1", "--modality", SOIL)
        ops.cli("synth", "--config", str(self.inp / "site.json"), "--modality", SOIL,
                "--out", str(site))
        ops.cli("inject", "--config", str(self.inp / "site.json"), "--in", series, *node,
                "--kind", "short", "--out", str(p / "short"))
        ops.cli("inject", "--config", str(self.inp / "noise.json"), "--in", series, *node,
                "--kind", "noise", "--out", str(p / "noise"))
        ops.cli("train", "--detector", "short", "--delta", "0.01", "--out", str(p / "short"))
        ops.cli("train", "--detector", "noise", "--in", series, *node, "--out", str(p / "noise"))
        ops.cli("train", "--detector", "llse", "--in", series, "--target", "n1",
                "--modality", SOIL, "--out", str(p / "llse"))
        ops.cli("detect", "--in", str(p / "short" / "faulted.csv"), "--detector", "short",
                "--model", str(p / "short" / "model.json"), "--out", str(p / "short"))
        ops.cli("detect", "--in", str(p / "noise" / "faulted.csv"), "--detector", "noise",
                "--model", str(p / "noise" / "model.json"), "--multiplier", "2.0",
                "--out", str(p / "noise"))
        ops.cli("detect", "--in", series, "--detector", "llse", "--model",
                str(p / "llse" / "model.json"), "--modality", SOIL, "--out", str(p / "llse"))
        for kind in ("short", "noise"):
            d = p / kind
            ops.cli("evaluate", "--in", str(d / "faulted.csv"), "--flags", str(d / "flags.csv"),
                    "--events", events, "--labels", str(d / "faulted.labels.json"),
                    "--fault-kind", kind, "--out", str(d))
        ops.cli("evaluate", "--in", series, *node, "--flags", str(p / "llse" / "flags.csv"),
                "--events", events, "--out", str(p / "llse"))
        ops.cli("sweep", "--config", str(self.inp / "sweep.json"), "--modality", SOIL,
                "--out", str(p / "sweep"))
        # The exit-code contract says both must exit 3 (data error).
        h = self.inp / "hostile"
        for flags in ("flags_past_end", "flags_negative"):
            ops.cli("evaluate", "--in", str(h / "series.csv"), "--flags",
                    str(h / f"{flags}.csv"), "--events", str(h / "events.csv"),
                    "--out", str(p / "hostile" / flags), expect_rc=3)

    def check(self, ops: Ops) -> None:
        p = self.out
        site = oracle.read_series(p / "site" / "series.csv")
        t0, dt, clean = site[("n1", SOIL)]
        times = oracle.sample_times(t0, dt, clean.size)
        events = oracle.read_events(p / "site" / "events.csv")
        faulted, labels = {}, {}
        for kind in ("short", "noise"):
            d = p / kind
            faulted[kind] = oracle.read_series(d / "faulted.csv")[("n1", SOIL)][2]
            labels[kind] = oracle.read_labels(d / "faulted.labels.json")
            plan = json.loads((d / "faulted.labels.json").read_text())["plan"]
            oracle.check_injection(clean, faulted[kind], labels[kind], plan)
        oracle.check_noise_model(p / "noise" / "model.json", clean)
        noise_model = json.loads((p / "noise" / "model.json").read_text())
        flags = {
            "short": oracle.short_flags(faulted["short"], 0.01),
            "noise": oracle.noise_flags(faulted["noise"], noise_model["window_len"],
                                        *oracle.noise_band(clean, noise_model["window_len"]),
                                        2.0),
        }
        for kind in ("short", "noise"):
            oracle.check_flags(p / kind / "flags.csv", kind, flags[kind])
            oracle.check_report(p / kind / "report.json", oracle.score(
                times, flags[kind], events, labels[kind], kind))
        check_llse(p / "llse", site, events)
        oracle.check_sweep_csv(p / "sweep" / "sweep.csv", oracle.sweep_expected(
            "noise", self.NOISE_GRID, faulted["noise"], times, clean,
            noise_model["window_len"], events, labels["noise"]))


class FieldIngest(Workload):
    """Recorded field data: ISO timestamps, holes to repair, a rain gauge.

    The ingest layer runs on its slow paths (ISO parsing, interpolation,
    splits) and the events layer derives storms from the gauge; synth does
    nothing.
    """

    name = "field-ingest"
    TRAIN_DAYS, TEST_DAYS = 15, 45
    NOISE_GRID = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]

    def sweep_config(self) -> dict:
        return {"seed": self.seed, "detector": "noise", "grid": self.NOISE_GRID,
                "data": {"train_csv": str(self.inp / "train.csv"),
                         "test_csv": str(self.inp / "test.csv"),
                         "events_csv": str(self.out / "events.csv"), "node_id": "f1"},
                "inject": {"kind": "noise", "noise_multiplier": 3.0}}

    def make_inputs(self) -> None:
        self.truth = fieldgen.make_field(self.inp, self.seed, self.TRAIN_DAYS, self.TEST_DAYS)
        _write_json(self.inp / "inject.json", {
            "seed": self.seed, "inject": {"kind": "short", "short_intensity": 0.2}})
        _write_json(self.inp / "sweep.json", self.sweep_config())

    def prepare(self) -> None:
        self.expected = sweep_oracle(self.sweep_config(), self.seed)

    def run_pass(self, ops: Ops) -> None:
        import faultlab.events as fev
        import faultlab.io as fio

        p = self.out
        ops.call("train", fio.ingest_csv, self.inp / "train.csv")
        ops.call("test", fio.ingest_csv, self.inp / "test.csv")
        ops.call("precip", fio.read_precip_csv, self.inp / "rain.csv")
        ops.call("events", fev.events_from_precipitation, ops.results.get("precip", []))
        ops.call("write_events", fio.write_events_csv, p / "events.csv",
                 ops.results.get("events", []))
        node = ("--node", "f1", "--modality", SOIL)
        ops.cli("inject", "--config", str(self.inp / "inject.json"), "--in",
                str(self.inp / "test.csv"), *node, "--kind", "short", "--out", str(p / "inject"))
        ops.cli("train", "--detector", "noise", "--in", str(self.inp / "train.csv"), *node,
                "--out", str(p / "model"))
        ops.cli("sweep", "--config", str(self.inp / "sweep.json"), "--modality", SOIL,
                "--out", str(p / "sweep"))

    def check(self, ops: Ops) -> None:
        for name in ("train", "test"):
            report, truth = ops.results[name], self.truth[name]["series"]
            expect(len(report.series) == sum(len(pc) for pc, _, _ in truth.values()),
                   f"{name}.csv: {len(report.series)} series pieces")
            for key, (pieces, filled, splits) in truth.items():
                got = report.find(*key)
                expect(len(got) == len(pieces), f"{name}.csv {key}: {len(got)} pieces, "
                                                f"want {len(pieces)}")
                for s, (t0, values) in zip(got, pieces):
                    expect(s.start_time == t0 and s.sample_interval == fieldgen.INTERVAL_S
                           and np.array_equal(s.values, values),
                           f"{name}.csv {key}: repaired piece differs")
                expect(report.filled.get(key, 0) == filled,
                       f"{name}.csv {key}: filled {report.filled.get(key, 0)}, want {filled}")
                expect(report.splits.get(key, 0) == splits,
                       f"{name}.csv {key}: splits {report.splits.get(key, 0)}, want {splits}")
        storms = [(e.start, e.end) for e in ops.results["events"]]
        expect(storms == self.truth["storms"], "events differ from the planted storms")
        expect(oracle.read_events(self.out / "events.csv") == storms,
               "events.csv differs from the derived events")

        (_, clean), = self.truth["test"]["series"][("f1", SOIL)][0]
        d = self.out / "inject"
        faulted = oracle.read_series(d / "faulted.csv")[("f1", SOIL)][2]
        plan = json.loads((d / "faulted.labels.json").read_text())["plan"]
        oracle.check_injection(clean, faulted, oracle.read_labels(d / "faulted.labels.json"),
                               plan)
        (_, train), = self.truth["train"]["series"][("f1", SOIL)][0]
        oracle.check_noise_model(self.out / "model" / "model.json", train)
        oracle.check_sweep_csv(self.out / "sweep" / "sweep.csv", self.expected)


WORKLOADS = {w.name: w for w in (StudySweep, CliWalkthrough, FieldIngest)}
