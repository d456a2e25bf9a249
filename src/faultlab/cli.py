"""Command-line front end.

Subcommands: synth, inject, train, detect, evaluate, sweep. Every command
reads an optional JSON config (--config) with flag overrides for seed,
modality, and output directory; outputs are deterministic for a fixed
config+seed, and every output file carries the resolved config either
embedded (JSON outputs) or as a `<file>.meta.json` sidecar (CSV outputs).
Every command loads its config, makes --out and reads its small inputs
(model, flags, events, labels) before it ingests or generates a series.
A command returns its files and `main` writes them all or none
(`io.write_outputs`): a failed or interrupted run leaves --out as it found
it, and the `wrote` lines print only once every file is in place.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import boolean, load_config, modality_of, number, section, seed_of
from .detect import (LlseModel, NoiseModel, ShortParams, fit_llse_model,
                     llse_detect, load_model, noise_detect, noise_train,
                     save_model, short_detect)
from .detect import DetectionResult
from .errors import ConfigError, DataError, NumericError
from .inject import save_labels, load_labels
from .io import (ingest_csv, read_detection_csv, read_events_csv,
                 write_csv, write_detection_csv, write_events_csv, write_json,
                 write_outputs, write_series_csv)
from .metrics import assemble_report, save_report
from .pipeline import (build_synth_config, inject_from_config, parse_inject,
                       run_sweep_points, select_series, sweep_rows, SWEEP_HEADER)
from .series import Modality, Series


def resolve_config(args) -> dict:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "modality", None):
        cfg["modality"] = args.modality
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"--out {out}: not a usable directory ({exc.strerror or exc})") from None
    return out


def _echo(command: str, cfg: dict) -> dict:
    return {"command": command, "config": cfg}


def _input_series(args, modality: Modality | None) -> Series:
    """The series of `--in` for `--node` and `modality`."""
    return select_series(ingest_csv(args.infile).series, args.node, modality, args.infile)


def _llse_series(path: str, target: str, modality: Modality | None,
                 neighbor_ids=None) -> tuple[Series, list[Series]]:
    """The llse target and its neighbors (by default every other node of the
    target's modality) out of a sensor CSV."""
    series = ingest_csv(path).series
    s = select_series(series, target, modality, path)
    if neighbor_ids is None:
        neighbor_ids = sorted({x.node_id for x in series if x.modality == s.modality}
                              - {target})
    return s, [select_series(series, node, s.modality, path) for node in neighbor_ids]


# --------------------------------------------------------------------------
# Subcommands: each returns its output files as (name, write, *args).
# --------------------------------------------------------------------------

def cmd_synth(args, cfg: dict) -> list[tuple]:
    series, events, schedule, _ = build_synth_config(section(cfg, "synth"), seed_of(cfg),
                                                     modality=modality_of(cfg))
    doc = _echo("synth", cfg) | {
        "schedule": [{"start": ev.window.start, "end": ev.window.end,
                      "rain_mm": ev.rain_mm} for ev in schedule]}
    return [("series.csv", write_series_csv, series),
            ("events.csv", write_events_csv, events),
            ("schedule.json", write_json, doc)]


def cmd_inject(args, cfg: dict) -> list[tuple]:
    inject_cfg = section(cfg, "inject") | ({"kind": args.kind} if args.kind else {})
    injection = parse_inject(inject_cfg, seed_of(cfg), trained=False)
    s, labels = inject_from_config(_input_series(args, modality_of(cfg)), injection)
    return [("faulted.csv", write_series_csv, [s]),
            ("faulted.labels.json", save_labels, labels, injection.plan)]


def cmd_train(args, cfg: dict) -> list[tuple]:
    modality = modality_of(cfg)
    if args.detector == "short":
        delta = args.delta if args.delta is not None else cfg.get("delta")
        if delta is None:
            raise ConfigError("short detector needs --delta or config key 'delta'")
        model = ShortParams(number(delta, "delta"))
    elif args.detector == "noise":
        window_len = number(cfg.get("noise_window_len", 18), "noise_window_len", int)
        model = noise_train(_input_series(args, modality), window_len)
    else:
        if not args.target:
            raise ConfigError("llse training needs --target <node id>")
        llse_cfg = section(cfg, "llse")
        params = dict(percentile_p=number(llse_cfg.get("percentile_p", 95.0),
                                          "llse.percentile_p"),
                      vote_q=number(llse_cfg.get("vote_q", 2), "llse.vote_q", int),
                      signed=boolean(llse_cfg.get("signed", False), "llse.signed"))
        model = fit_llse_model(*_llse_series(args.infile, args.target, modality), **params)
    return [("model.json", save_model, model, _echo("train", cfg))]


def _model(args, cls):
    """The model file of `--model`, which must hold a `cls` model."""
    model = load_model(args.model) if args.model else None
    if not isinstance(model, cls):
        raise ConfigError(f"{args.detector} detection needs --model with a {args.detector} model")
    return model


def _detect(args, cfg: dict) -> DetectionResult:
    modality = modality_of(cfg)
    if args.detector == "llse":
        model = _model(args, LlseModel)
        s, neighbors = _llse_series(args.infile, model.target, modality,
                                    [fit.node_id for fit in model.neighbors])
        return llse_detect(s, neighbors, model)
    if args.detector == "short":
        delta = args.delta if args.delta is not None else cfg.get("delta")
        if delta is None and args.model:
            delta = _model(args, ShortParams).delta
        if delta is None:
            raise ConfigError("short detection needs --delta, config 'delta', or --model")
        params = ShortParams(number(delta, "delta"))
        return short_detect(_input_series(args, modality), params)
    model = _model(args, NoiseModel)
    multiplier = args.multiplier if args.multiplier is not None else cfg.get("multiplier")
    if multiplier is None:
        raise ConfigError("noise detection needs --multiplier or config 'multiplier'")
    multiplier = number(multiplier, "multiplier")
    return noise_detect(_input_series(args, modality), model, multiplier)


def cmd_detect(args, cfg: dict) -> list[tuple]:
    result = _detect(args, cfg)
    return [("flags.csv", write_detection_csv, result.flagged_samples, result.source)]


def cmd_evaluate(args, cfg: dict) -> list[tuple]:
    modality = modality_of(cfg)
    events = read_events_csv(args.events)
    by_source = read_detection_csv(args.flags)
    if len(by_source) != 1:
        raise DataError(f"{args.flags}: expected flags from exactly one detector, "
                        f"found {sorted(by_source)}")
    result = DetectionResult(*next(iter(by_source.items())))
    truth = load_labels(args.labels) if args.labels else None
    report = assemble_report(_input_series(args, modality), result, events, truth=truth,
                             kind=args.fault_kind, parameters=_echo("evaluate", cfg))
    return [("report.json", save_report, report)]


def cmd_sweep(args, cfg: dict) -> list[tuple]:
    result = run_sweep_points(cfg, seed_of(cfg), modality_of(cfg, Modality.BOX_TEMP))
    return [("sweep.csv", write_csv, SWEEP_HEADER, sweep_rows(result))] + [
        (f"report_{i:03d}.json", save_report, report) for i, report in enumerate(result.points)]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

@functools.cache  # built once per process; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faultlab",
        description="Sensor-fault detection, injection, and event-misclassification analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (default: current)")
        p.add_argument("--modality", choices=[m.value for m in Modality],
                       help="sensor channel")

    p = sub.add_parser("synth", help="generate synthetic deployment data")
    common(p)

    p = sub.add_parser("inject", help="inject faults into a series")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="input series CSV")
    p.add_argument("--node", help="node id (when the file holds several)")
    p.add_argument("--kind", choices=["short", "noise", "both"])

    p = sub.add_parser("train", help="fit a detector model")
    common(p)
    p.add_argument("--in", dest="infile", help="training series CSV")
    p.add_argument("--detector", required=True, choices=["short", "noise", "llse"])
    p.add_argument("--node", help="node id (noise training)")
    p.add_argument("--target", help="target node id (llse training)")
    p.add_argument("--delta", type=float, help="jump threshold (short)")

    p = sub.add_parser("detect", help="run a detector over a series")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="input series CSV")
    p.add_argument("--model", help="model JSON from `train`")
    p.add_argument("--detector", required=True, choices=["short", "noise", "llse"])
    p.add_argument("--node", help="node id (when the file holds several)")
    p.add_argument("--delta", type=float, help="jump threshold (short)")
    p.add_argument("--multiplier", type=float, help="allowed-band multiplier (noise)")

    p = sub.add_parser("evaluate", help="score detection flags against events")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="series CSV the flags refer to")
    p.add_argument("--flags", required=True, help="detection CSV from `detect`")
    p.add_argument("--events", required=True, help="event windows CSV")
    p.add_argument("--labels", help="injected-fault labels JSON")
    p.add_argument("--fault-kind", choices=["short", "noise"],
                   help="which labeled kind the FN ratio covers")
    p.add_argument("--node", help="node id (when the file holds several)")

    p = sub.add_parser("sweep", help="run a detector over a parameter grid")
    common(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up on each call, not bound into the cached parser, so that a
    # cmd_* replaced on this module (say, by a wrapper that times it) runs.
    command = {"synth": cmd_synth, "inject": cmd_inject, "train": cmd_train,
               "detect": cmd_detect, "evaluate": cmd_evaluate, "sweep": cmd_sweep}[args.command]
    try:
        if args.command == "train" and args.detector != "short" and not args.infile:
            raise ConfigError("--in is required for noise/llse training")
        cfg, out = resolve_config(args), _out_dir(args)
        files = []
        for file in command(args, cfg):
            files.append(file)
            if file[0].endswith(".csv"):  # the config sidecar of every CSV output
                files.append((file[0] + ".meta.json", write_json, _echo(args.command, cfg)))
        for path in write_outputs(out, files):
            print(f"wrote {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
