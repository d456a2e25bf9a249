"""Command-line front end.

Subcommands: synth, inject, train, detect, evaluate, sweep. Every command
reads an optional JSON config (--config) with flag overrides for seed,
modality, and output directory; outputs are deterministic for a fixed
config+seed, and every output file carries the resolved config either
embedded (JSON outputs) or as a `<file>.meta.json` sidecar (CSV outputs).
Every command loads its config, makes --out and reads its small inputs
(model, flags, events, labels) before it ingests or generates a series;
`io.read_series` is its one read of a sensor CSV, and picks the series.
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

from .config import SWEEP_MODALITY, load_config, section, value
from .detect import (DetectionResult, LlseModel, NoiseModel, ShortParams, fit_llse_model,
                     llse_detect, load_model, noise_detect, noise_train,
                     save_model, short_detect)
from .errors import ConfigError, DataError, NumericError
from .inject import save_labels, load_labels
from .io import (read_detection_csv, read_events_csv, read_series,
                 write_csv, write_detection_csv, write_events_csv, write_json,
                 write_outputs, write_series_csv)
from .metrics import assemble_report, save_report
from .pipeline import (build_synth_config, inject_from_config, parse_inject,
                       run_sweep_points, sweep_rows, SWEEP_HEADER)
from .series import Modality


def _flags(args, cfg: dict, *keys: str) -> dict:
    """`cfg` with each of `keys` set to its flag where that flag was given."""
    return cfg | {key: getattr(args, key) for key in keys if getattr(args, key) is not None}


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"--out {out}: not a usable directory ({exc.strerror or exc})") from None
    return out


def _echo(command: str, cfg: dict) -> dict:
    return {"command": command, "config": cfg}


# --------------------------------------------------------------------------
# Subcommands: each returns its output files as (name, write, *args).
# --------------------------------------------------------------------------

def cmd_synth(args, cfg: dict) -> list[tuple]:
    series, events, schedule, _ = build_synth_config(section(cfg, "synth"), value(cfg, "seed"),
                                                     modality=value(cfg, "modality"))
    doc = _echo("synth", cfg) | {
        "schedule": [{"start": ev.window.start, "end": ev.window.end,
                      "rain_mm": ev.rain_mm} for ev in schedule]}
    return [("series.csv", write_series_csv, series),
            ("events.csv", write_events_csv, events),
            ("schedule.json", write_json, doc)]


def cmd_inject(args, cfg: dict) -> list[tuple]:
    inject_cfg = section(cfg, "inject") | ({"kind": args.kind} if args.kind else {})
    injection = parse_inject(inject_cfg, value(cfg, "seed"), trained=False)
    s, labels = inject_from_config(
        read_series(args.infile, args.node, value(cfg, "modality"))[0], injection)
    return [("faulted.csv", write_series_csv, [s]),
            ("faulted.labels.json", save_labels, labels, injection.plan)]


def cmd_train(args, cfg: dict) -> list[tuple]:
    modality = value(cfg, "modality")
    if args.detector == "short":
        delta = value(_flags(args, cfg, "delta"), "delta")
        if delta is None:
            raise ConfigError("short detector needs --delta or config key 'delta'")
        model = ShortParams(delta)
    elif args.detector == "noise":
        window_len = value(cfg, "noise_window_len")  # before the series is read
        model = noise_train(read_series(args.infile, args.node, modality)[0], window_len)
    else:
        if not args.target:
            raise ConfigError("llse training needs --target <node id>")
        llse_cfg = section(cfg, "llse")
        params = {key: value(llse_cfg, f"llse.{key}")
                  for key in ("percentile_p", "vote_q", "signed")}
        model = fit_llse_model(*read_series(args.infile, args.target, modality, None), **params)
    return [("model.json", save_model, model, _echo("train", cfg))]


def _model(args, cls):
    """The model file of `--model`, which must hold a `cls` model."""
    model = load_model(args.model) if args.model else None
    if not isinstance(model, cls):
        raise ConfigError(f"{args.detector} detection needs --model with a {args.detector} model")
    return model


def _detect(args, cfg: dict) -> DetectionResult:
    modality = value(cfg, "modality")
    if args.detector == "llse":
        model = _model(args, LlseModel)
        s, neighbors = read_series(args.infile, model.target, modality,
                                   [fit.node_id for fit in model.neighbors])
        return llse_detect(s, neighbors, model)
    if args.detector == "short":
        delta = value(_flags(args, cfg, "delta"), "delta")
        if delta is None and args.model:
            delta = _model(args, ShortParams).delta
        if delta is None:
            raise ConfigError("short detection needs --delta, config 'delta', or --model")
        return short_detect(read_series(args.infile, args.node, modality)[0], ShortParams(delta))
    model = _model(args, NoiseModel)
    multiplier = value(_flags(args, cfg, "multiplier"), "multiplier")
    if multiplier is None:
        raise ConfigError("noise detection needs --multiplier or config 'multiplier'")
    return noise_detect(read_series(args.infile, args.node, modality)[0], model, multiplier)


def cmd_detect(args, cfg: dict) -> list[tuple]:
    result = _detect(args, cfg)
    return [("flags.csv", write_detection_csv, result.flagged_samples, result.source)]


def cmd_evaluate(args, cfg: dict) -> list[tuple]:
    modality = value(cfg, "modality")
    events = read_events_csv(args.events)
    by_source = read_detection_csv(args.flags)
    if len(by_source) > 1:
        raise DataError(f"{args.flags}: expected flags from exactly one detector, "
                        f"found {sorted(by_source)}")
    # A file of no rows is a detector that flagged nothing; a report stores no source.
    result = DetectionResult(*next(iter(by_source.items()), ("short",)))
    truth = load_labels(args.labels) if args.labels else None
    report = assemble_report(read_series(args.infile, args.node, modality)[0], result, events,
                             truth=truth, kind=args.fault_kind, parameters=_echo("evaluate", cfg))
    return [("report.json", save_report, report)]


def cmd_sweep(args, cfg: dict) -> list[tuple]:
    result = run_sweep_points(cfg, value(cfg, "seed"), value(cfg, "modality") or SWEEP_MODALITY)
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
        cfg, out = _flags(args, load_config(args.config), "seed", "modality"), _out_dir(args)
        files = []
        for file in command(args, cfg):
            files.append(file)
            if file[0].endswith(".csv"):  # the config sidecar of every CSV output
                files.append((file[0] + ".meta.json", write_json, _echo(args.command, cfg)))
        for path in write_outputs(out, files):
            print(f"wrote {path}")
        return 0
    except (ConfigError, DataError, NumericError) as exc:
        kind, code = ("config", 2) if isinstance(exc, ConfigError) else \
            ("data", 3) if isinstance(exc, DataError) else ("numeric", 4)
        # One line: a character str.isprintable refuses (a line break, a NUL) as its escape.
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))
        print(f"{kind} error: {text}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
