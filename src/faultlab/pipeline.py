"""Config-driven experiment assembly behind the CLI.

A pipeline run mirrors the study design: build (or load) a sensor record,
pair-smooth it, split a training stretch from the test stretch, inject
faults into the test data, train the detector on the clean training data,
and score a parameter grid against the event windows.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .config import injection_plan, json_numbers, nodes_from_config, number, section, value
from .detect import NoiseModel, ShortParams, noise_detect, noise_train, short_detect
from .errors import ConfigError, DataError
from .inject import InjectionPlan, inject_noise, inject_short, load_labels, merge_labels
from .io import read_events_csv, read_series
from .metrics import EvalReport, assemble_report
from .preprocess import smooth_pairs
from .series import EventWindow, GroundTruthLabels, Modality, Series
from .synth import (BoxTempProfile, DeploymentSpec, SoilMoistureProfile,
                    check_grid, gen_deployment, make_event_schedule)

__all__ = [
    "SweepResult",
    "build_synth_config",
    "materialize",
    "run_sweep_points",
]

SWEEP_HEADER = ("param", "mu", "mu_first_half_hour", "fn_ratio")


@dataclass
class SweepResult:
    points: list[EvalReport]  # one per grid point; its parameters hold the "param"


SCHEDULE_KEYS = ("min_duration_s", "max_duration_s", "min_rain_mm", "max_rain_mm")


def _profile(cls, raw, what: str):
    return cls(**json_numbers(raw, cls.__dataclass_fields__, what))


def build_synth_config(synth_cfg: dict, seed: int, node: str | None = None,
                       modality: Modality | None = None):
    """Build deployment series and event windows from a synth config block.

    `node` and `modality`, when given, select the series to generate (see
    `gen_deployment`). Returns (series list, test event windows, full
    schedule, train_days).
    Events counted by `train_events` land in the training stretch, the
    `n_events` test events after it; only the latter are returned as the
    evaluation windows.
    """
    if "days" in synth_cfg:
        raise ConfigError("synth.days is not a key; set synth.test_days")
    train_days, test_days, interval_s, n_events, train_events = (
        value(synth_cfg, f"synth.{key}")
        for key in ("train_days", "test_days", "interval_s", "n_events", "train_events"))
    if train_days < 0 or test_days < 1:
        raise ConfigError("synth needs train_days >= 0 and test_days >= 1")
    check_grid(train_days + test_days, interval_s)  # before drawing any event

    bounds = json_numbers(synth_cfg.get("schedule", {}), SCHEDULE_KEYS, "synth.schedule")
    train_sched = make_event_schedule(train_days, train_events, [seed, 2], **bounds) \
        if train_events else ()
    test_sched = make_event_schedule(test_days, n_events, [seed, 3],
                                     span_start_s=train_days * 86400.0, **bounds)
    schedule = tuple(train_sched) + tuple(test_sched)

    ids, scales, lags = nodes_from_config(synth_cfg)
    box = _profile(BoxTempProfile, synth_cfg.get("box", {}), "synth.box")
    soil = _profile(SoilMoistureProfile, synth_cfg.get("soil", {}), "synth.soil")
    spec = DeploymentSpec(node_ids=ids, response_scales=scales, lags_s=lags,
                          schedule=schedule, seed=seed,
                          days=train_days + test_days, interval_s=interval_s)
    series, _ = gen_deployment(spec, box, soil, node, modality)
    test_windows = [ev.window for ev in test_sched]
    return series, test_windows, schedule, train_days


def split_series(s: Series, split_time: float) -> tuple[Series, Series]:
    """Cut a series at an absolute time into (before, from-then-on): the
    second part starts at the first sample at or after `split_time`, the
    rule event windows follow."""
    k = bisect_left(range(len(s)), split_time, key=s.time_at)  # no array of times
    if not 0 < k < len(s):
        raise DataError(f"split time {split_time} falls outside the series")
    return s.subseries(0, k), s.subseries(k, len(s))


@dataclass
class MaterializedRun:
    train: Series
    test: Series
    events: list[EventWindow]
    labels: GroundTruthLabels | None
    noise_model: NoiseModel | None
    plan: InjectionPlan | None


class Injection(NamedTuple):
    """A checked `inject` block; a `base_sigma` of None takes sigma_train."""
    kind: str
    plan: InjectionPlan
    base_sigma: float | None


def parse_inject(inject_cfg: dict, seed: int, trained: bool) -> Injection:
    """The `inject` block, checked before any series work. Noise injection
    needs `base_sigma` unless a noise model is `trained`."""
    kind = inject_cfg.get("kind")
    if kind not in ("short", "noise", "both"):
        raise ConfigError(f"inject.kind must be short, noise, or both, got {kind!r}")
    plan = injection_plan(inject_cfg, seed)
    base_sigma = value(inject_cfg, "inject.base_sigma") if kind != "short" else None
    if base_sigma is None and kind != "short" and not trained:
        raise ConfigError("noise injection needs inject.base_sigma or a "
                          "trained noise model to take sigma_train from")
    return Injection(kind, plan, base_sigma)


def inject_from_config(test: Series, injection: Injection,
                       noise_model: NoiseModel | None = None):
    """Inject the faults of a parsed `inject` block; returns (series, labels)."""
    labels = GroundTruthLabels()
    if injection.kind in ("noise", "both"):
        sigma = noise_model.sigma_train if injection.base_sigma is None else injection.base_sigma
        test, noise_labels = inject_noise(test, injection.plan, sigma)
        labels = merge_labels(labels, noise_labels)
    if injection.kind in ("short", "both"):
        # Spikes go in second so they land on the already-noised series.
        test, short_labels = inject_short(test, injection.plan)
        labels = merge_labels(labels, short_labels)
    return test, labels


def materialize(config: dict, seed: int, modality: Modality) -> MaterializedRun:
    """Build train/test series, events, labels, and the noise model for a sweep."""
    smooth, window_len = value(config, "smooth"), value(config, "noise_window_len")
    detector = config.get("detector")

    if ("synth" in config) == ("data" in config):
        raise ConfigError("config needs exactly one of 'synth' or 'data'")
    injection = (parse_inject(section(config, "inject"), seed, detector == "noise")
                 if "inject" in config else None)

    labels: GroundTruthLabels | None = None
    if "synth" in config:
        synth_cfg = section(config, "synth")
        if value(synth_cfg, "synth.train_days") < 1:
            raise ConfigError("synth sweeps need train_days >= 1")
        target = value(synth_cfg, "synth.target") or nodes_from_config(synth_cfg)[0][0]
        series, events, _, train_days = build_synth_config(synth_cfg, seed, target, modality)
        if not series:  # an unknown target
            raise DataError(f"synth: no series for node {target!r} modality {modality.value!r}")
        full = smooth_pairs(series[0]) if smooth else series[0]
        train, test = split_series(full, train_days * 86400.0)
    else:
        data_cfg = section(config, "data")
        for key in ("train_csv", "test_csv", "events_csv"):
            if not isinstance(data_cfg.get(key), str):
                raise ConfigError(f"data config needs {key!r} (a path)")
        node = value(data_cfg, "data.node_id")
        if node is None:
            raise ConfigError("data config needs node_id")
        labels_json = data_cfg.get("labels_json")  # null reads as absent
        if labels_json is not None and not (isinstance(labels_json, str) and labels_json):
            raise ConfigError(f"data.labels_json must be a path, got {labels_json!r}")
        if labels_json and smooth:
            raise ConfigError('data.labels_json needs "smooth": false, since labels '
                              'index the unsmoothed test file')
        events = read_events_csv(data_cfg["events_csv"])  # the small inputs first
        if labels_json:
            labels = load_labels(labels_json)
        train, test = (read_series(data_cfg[key], node, modality)[0]
                       for key in ("train_csv", "test_csv"))
        if smooth:
            train, test = smooth_pairs(train), smooth_pairs(test)

    noise_model = noise_train(train, window_len) if detector == "noise" else None

    if injection is not None:
        test, labels = inject_from_config(test, injection, noise_model)
    return MaterializedRun(train=train, test=test, events=events, labels=labels,
                           noise_model=noise_model, plan=injection and injection.plan)


def run_sweep_points(config: dict, seed: int, modality: Modality) -> SweepResult:
    """Detect and score every grid point of a sweep config."""
    detector = config.get("detector")
    if detector not in ("short", "noise"):
        raise ConfigError(f"sweep detector must be short or noise, got {detector!r}")
    grid = config.get("grid")
    if not isinstance(grid, Sequence) or isinstance(grid, (str, bytes)) or len(grid) == 0:
        raise ConfigError("sweep needs a non-empty numeric 'grid'")
    grid = [number(raw, "grid") for raw in grid]
    run = materialize(config, seed, modality)

    # Each point runs its detector before it is scored, so a bad grid value is
    # reported before an event-range error; `run.test` keeps what they derive.
    scored_kind = detector if run.labels is not None else None
    points = []
    for param in grid:
        if detector == "short":
            result = short_detect(run.test, ShortParams(param))
        else:
            result = noise_detect(run.test, run.noise_model, param)
        points.append(assemble_report(
            run.test, result, run.events, truth=run.labels, kind=scored_kind,
            parameters={"detector": detector, "param": param,
                        "seed": seed, "modality": modality.value}))
    return SweepResult(points=points)


def sweep_rows(result: SweepResult) -> list[tuple[str, str, str, str]]:
    """CSV rows (param, mu, mu_first_half_hour, fn_ratio); absent metrics empty."""
    def fmt(x):
        return "" if x is None else repr(float(x))

    return [(repr(rep.parameters["param"]), fmt(rep.mu), fmt(rep.mu_first_half_hour),
             fmt(rep.false_negative_ratio)) for rep in result.points]
