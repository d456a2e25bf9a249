"""Command-line front end.

Subcommands: synth, inject, train, detect, evaluate, sweep. Every command
reads an optional JSON config (--config) with flag overrides for seed,
modality, and output directory; outputs are deterministic for a fixed
config+seed, and every output file carries the resolved config either
embedded (JSON outputs) or as a `<file>.meta.json` sidecar (CSV outputs).
Every command loads its config, makes --out and reads its small inputs
(model, flags, events, labels) before it ingests or generates a series.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import boolean, load_config, modality_of, number, section, seed_of
from .detect import (LlseModel, NoiseModel, ShortParams, fit_llse_model,
                     llse_detect, load_model, noise_detect, noise_train,
                     save_model, short_detect)
from .detect import DetectionResult
from .errors import ConfigError, DataError, FaultLabError, NumericError
from .inject import save_labels, load_labels
from .io import (ingest_csv, read_detection_csv, read_events_csv,
                 write_csv, write_detection_csv, write_events_csv, write_json,
                 write_series_csv)
from .metrics import assemble_report, save_report
from .pipeline import (build_synth_config, inject_from_config, run_sweep_points,
                       select_series, sweep_rows, SWEEP_HEADER)
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


def _write_meta(path: Path, command: str, cfg: dict) -> Path:
    meta = path.with_name(path.name + ".meta.json")
    write_json(meta, _echo(command, cfg))
    return meta


def _say(path: Path) -> None:
    print(f"wrote {path}")


def _write_with_meta(path: Path, write, data, command: str, cfg: dict) -> None:
    """`write(path, data)` and the config sidecar of `path`."""
    write(path, data)
    _say(path)
    _say(_write_meta(path, command, cfg))


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
# Subcommands
# --------------------------------------------------------------------------

def cmd_synth(args, cfg: dict, out: Path) -> None:
    series, events, schedule, _ = build_synth_config(section(cfg, "synth"), seed_of(cfg),
                                                     modality=modality_of(cfg))
    _write_with_meta(out / "series.csv", write_series_csv, series, "synth", cfg)
    _write_with_meta(out / "events.csv", write_events_csv, events, "synth", cfg)
    sched_path = out / "schedule.json"
    write_json(sched_path, _echo("synth", cfg) | {
        "schedule": [{"start": ev.window.start, "end": ev.window.end,
                      "rain_mm": ev.rain_mm} for ev in schedule]})
    _say(sched_path)


def cmd_inject(args, cfg: dict, out: Path) -> None:
    seed = seed_of(cfg)
    inject_cfg = section(cfg, "inject")
    if args.kind:
        inject_cfg = inject_cfg | {"kind": args.kind}
    s = _input_series(args, modality_of(cfg))
    s, labels, plan = inject_from_config(s, inject_cfg, seed, None)

    _write_with_meta(out / "faulted.csv", write_series_csv, [s], "inject", cfg)
    labels_path = out / "faulted.labels.json"
    save_labels(labels_path, labels, plan)
    _say(labels_path)


def cmd_train(args, cfg: dict, out: Path) -> None:
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

    model_path = out / "model.json"
    save_model(model_path, model, config_echo=_echo("train", cfg))
    _say(model_path)


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


def cmd_detect(args, cfg: dict, out: Path) -> None:
    _write_with_meta(out / "flags.csv", write_detection_csv, _detect(args, cfg).to_flags(),
                     "detect", cfg)


def cmd_evaluate(args, cfg: dict, out: Path) -> None:
    modality = modality_of(cfg)
    events = read_events_csv(args.events)
    by_source = read_detection_csv(args.flags)
    if len(by_source) != 1:
        raise DataError(f"{args.flags}: expected flags from exactly one detector, "
                        f"found {sorted(by_source)}")
    result = DetectionResult(*next(iter(by_source.items())))
    truth = load_labels(args.labels) if args.labels else None

    report = assemble_report(_input_series(args, modality), result, events, truth=truth,
                             kind=args.fault_kind,
                             parameters=_echo("evaluate", cfg))
    report_path = out / "report.json"
    save_report(report_path, report)
    _say(report_path)


def cmd_sweep(args, cfg: dict, out: Path) -> None:
    seed = seed_of(cfg)
    modality = modality_of(cfg, Modality.BOX_TEMP)
    written: list[Path] = []
    try:
        result = run_sweep_points(cfg, seed, modality)
        sweep_path = out / "sweep.csv"
        write_csv(sweep_path, SWEEP_HEADER, sweep_rows(result))
        written.append(sweep_path)
        written.append(_write_meta(sweep_path, "sweep", cfg))
        for i, pt in enumerate(result.points):
            report_path = out / f"report_{i:03d}.json"
            save_report(report_path, pt.report)
            written.append(report_path)
    except FaultLabError:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    for path in written:
        _say(path)


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("inject", help="inject faults into a series")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="input series CSV")
    p.add_argument("--node", help="node id (when the file holds several)")
    p.add_argument("--kind", choices=["short", "noise", "both"])
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("train", help="fit a detector model")
    common(p)
    p.add_argument("--in", dest="infile", help="training series CSV")
    p.add_argument("--detector", required=True, choices=["short", "noise", "llse"])
    p.add_argument("--node", help="node id (noise training)")
    p.add_argument("--target", help="target node id (llse training)")
    p.add_argument("--delta", type=float, help="jump threshold (short)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="run a detector over a series")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="input series CSV")
    p.add_argument("--model", help="model JSON from `train`")
    p.add_argument("--detector", required=True, choices=["short", "noise", "llse"])
    p.add_argument("--node", help="node id (when the file holds several)")
    p.add_argument("--delta", type=float, help="jump threshold (short)")
    p.add_argument("--multiplier", type=float, help="allowed-band multiplier (noise)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("evaluate", help="score detection flags against events")
    common(p)
    p.add_argument("--in", dest="infile", required=True, help="series CSV the flags refer to")
    p.add_argument("--flags", required=True, help="detection CSV from `detect`")
    p.add_argument("--events", required=True, help="event windows CSV")
    p.add_argument("--labels", help="injected-fault labels JSON")
    p.add_argument("--fault-kind", choices=["short", "noise"],
                   help="which labeled kind the FN ratio covers")
    p.add_argument("--node", help="node id (when the file holds several)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a detector over a parameter grid")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train" and args.detector != "short" and not args.infile:
            raise ConfigError("--in is required for noise/llse training")
        args.func(args, resolve_config(args), _out_dir(args))
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
