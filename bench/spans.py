"""Layer timing for faultlab, recorded from outside the package.

Every layer is timed by replacing a public function with a wrapper that
opens a span around the call. ``pipeline`` and ``cli`` import their
collaborators by name, so a wrapper has to replace every module attribute
that refers to the original function, not only the one in its home module;
``patch`` does that by identity. ``DetectionResult.sample_indices`` is
replaced on the class.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (-1 at the top) and ``counts`` holds the work counts
taken from the call's arguments and result. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

__all__ = ["Meter", "PER_LAYER", "RowCounter", "Tracer", "layer_metrics", "patch", "unpatch"]


def patch(current, replacement) -> list[tuple[object, str, object]]:
    """Point every faultlab module attribute that is `current` at `replacement`.

    Returns the undo list for `unpatch`.
    """
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "faultlab" or name.startswith("faultlab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is current:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, current))
    return undo


def unpatch(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class RowCounter:
    """Data rows of a sensor CSV, counted once per file content.

    Rows are the lines that are neither `#` comments nor the header. The
    count is cached by (path, size): the benchmark rewrites identical files
    in every pass and checks that they stay byte-identical.
    """

    def __init__(self):
        self._cache: dict[tuple[str, int], int] = {}

    def __call__(self, path) -> int:
        p = Path(path)
        key = (str(p), p.stat().st_size)
        rows = self._cache.get(key)
        if rows is None:
            data = p.read_bytes()
            lines = data.count(b"\n") + (0 if data.endswith(b"\n") or not data else 1)
            comments = data.count(b"\n#") + (1 if data.startswith(b"#") else 0)
            rows = lines - comments - 1
            self._cache[key] = rows
        return rows


class Meter:
    """Time and rows of `io.ingest_csv` and `io.write_series_csv` per pass.

    It is installed in untraced runs too: these two figures are end-to-end
    metrics, and two clock reads per call cost nothing measurable.
    """

    def __init__(self, rows: RowCounter):
        self.rows = rows
        self.reset()

    def reset(self) -> None:
        self.ingest_s = 0.0
        self.ingest_rows = 0
        self.write_s = 0.0
        self.write_rows = 0

    def install(self) -> list:
        import faultlab.io as fio

        ingest, write = fio.ingest_csv, fio.write_series_csv
        meter = self

        @functools.wraps(ingest)
        def ingest_csv(path, *args, **kwargs):
            t0 = perf_counter()
            out = ingest(path, *args, **kwargs)
            meter.ingest_s += perf_counter() - t0
            meter.ingest_rows += meter.rows(path)
            return out

        @functools.wraps(write)
        def write_series_csv(path, series, *args, **kwargs):
            series = list(series)
            t0 = perf_counter()
            out = write(path, series, *args, **kwargs)
            meter.write_s += perf_counter() - t0
            meter.write_rows += sum(len(s) for s in series)
            return out

        return patch(ingest, ingest_csv) + patch(write, write_series_csv)


def _flag_count(result) -> int:
    return len(result.flagged_samples) + sum(n for _, n in result.flagged_windows)


def _label_count(labels) -> int:
    return len(labels.short_indices) + sum(n for _, n in labels.noise_windows)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, rows: RowCounter):
        self.rows = rows
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.t0 = perf_counter()

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return wrapper

    def install(self) -> list:
        """Wrap every traced function; returns the undo list."""
        import faultlab.cli as cli
        import faultlab.detect as detect
        import faultlab.events as events
        import faultlab.inject as inject
        import faultlab.io as fio
        import faultlab.metrics as metrics
        import faultlab.pipeline as pipeline
        import faultlab.preprocess as preprocess
        import faultlab.synth as synth

        rows = self.rows
        targets = [
            (synth, "gen_deployment", "synth.gen_deployment",
             lambda a, k, out: {"synth.samples": sum(len(s) for s in out[0])}),
            (fio, "ingest_csv", "io.ingest_csv",
             lambda a, k, out: {"io.ingest_rows": rows(a[0]),
                                "io.ingest_filled": out.total_filled,
                                "io.ingest_splits": sum(out.splits.values())}),
            (fio, "write_series_csv", "io.write_series_csv",
             lambda a, k, out: {"io.write_rows": sum(len(s) for s in a[1])}),
            (fio, "write_detection_csv", "io.detection_csv",
             lambda a, k, out: {"io.flag_rows": len(a[1])}),
            (fio, "read_detection_csv", "io.detection_csv",
             lambda a, k, out: {"io.flag_rows": sum(v.size for v in out.values())}),
            (fio, "read_precip_csv", "io.events_precip_csv", None),
            (fio, "read_events_csv", "io.events_precip_csv", None),
            (fio, "write_events_csv", "io.events_precip_csv", None),
            (preprocess, "smooth_pairs", "preprocess.smooth_pairs", None),
            (events, "events_from_precipitation", "events.events_from_precipitation",
             lambda a, k, out: {"events.windows": len(out)}),
            (events, "event_sample_indices", "events.index", None),
            (events, "per_event_indices", "events.index", None),
            (events, "first_half_hour_indices", "events.index", None),
            (inject, "inject_short", "inject.inject_short",
             lambda a, k, out: {"inject.labels": _label_count(out[1])}),
            (inject, "inject_noise", "inject.inject_noise",
             lambda a, k, out: {"inject.labels": _label_count(out[1])}),
            (detect, "short_detect", "detect.short_detect",
             lambda a, k, out: {"detect.flags": _flag_count(out)}),
            (detect, "noise_detect", "detect.noise_detect",
             lambda a, k, out: {"detect.flags": _flag_count(out)}),
            (detect, "llse_detect", "detect.llse_detect",
             lambda a, k, out: {"detect.flags": _flag_count(out)}),
            (detect, "noise_train", "detect.noise_train", None),
            (detect, "fit_llse_model", "detect.fit_llse_model", None),
            (metrics, "assemble_report", "metrics.assemble_report",
             lambda a, k, out: {"metrics.event_samples":
                                sum(st.samples for st in out.per_event)}),
            (pipeline, "materialize", "pipeline.materialize", None),
            (pipeline, "run_sweep_points", "pipeline.run_sweep_points",
             lambda a, k, out: {"pipeline.grid_points": len(out.points)}),
        ]
        targets += [(cli, f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS]
        undo = []
        for mod, attr, name, count in targets:
            fn = getattr(mod, attr)
            undo += patch(fn, self.wrap(name, fn, count))
        cls = detect.DetectionResult
        orig = cls.sample_indices
        cls.sample_indices = self.wrap("detect.sample_indices", orig)
        undo.append((cls, "sample_indices", orig))
        return undo

    def dump(self, path: Path, meta: dict) -> None:
        spans = [[name, round(t0 - self.t0, 7), round(t1 - self.t0, 7), parent, counts]
                 for name, t0, t1, parent, counts in self.spans]
        path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")


CLI_COMMANDS = ("synth", "inject", "train", "detect", "evaluate", "sweep")

# Per-layer metrics, in BENCHMARK.json order: (name, unit).
PER_LAYER = (
    [("synth.gen_deployment_s", "s"), ("synth.samples", "count"),
     ("io.ingest_csv_s", "s"), ("io.ingest_rows", "count"),
     ("io.ingest_filled", "count"), ("io.ingest_splits", "count"),
     ("io.write_series_csv_s", "s"), ("io.write_rows", "count"),
     ("io.detection_csv_s", "s"), ("io.flag_rows", "count"),
     ("io.events_precip_csv_s", "s"), ("preprocess.smooth_pairs_s", "s"),
     ("events.events_from_precipitation_s", "s"), ("events.windows", "count"),
     ("events.index_s", "s"),
     ("inject.inject_short_s", "s"), ("inject.inject_noise_s", "s"),
     ("inject.labels", "count"),
     ("detect.short_detect_s", "s"), ("detect.noise_detect_s", "s"),
     ("detect.noise_train_s", "s"), ("detect.fit_llse_model_s", "s"),
     ("detect.llse_detect_s", "s"), ("detect.sample_indices_s", "s"),
     ("detect.sample_indices_calls", "count"), ("detect.flags", "count"),
     ("metrics.assemble_report_self_s", "s"), ("metrics.reports", "count"),
     ("metrics.event_samples", "count"), ("metrics.event_index_share", "ratio"),
     ("pipeline.materialize_self_s", "s"), ("pipeline.run_sweep_points_self_s", "s"),
     ("pipeline.grid_points", "count")]
    + [(f"cli.{c}_self_s", "s") for c in CLI_COMMANDS]
    + [("cli.commands", "count"), ("trace.overhead_s", "s")]
)


def layer_metrics(spans: list[list], offset: int) -> dict[str, float]:
    """Per-layer totals over one pass's `spans`; `trace.overhead_s` excluded.

    `spans` is the slice of the tracer's list that starts at index `offset`
    (parent indices are positions in the whole list). `<layer>_s` is the
    summed duration of the layer's spans, `<layer>_self_s` the summed
    duration minus the time covered by direct child spans.
    """
    child_time = [0.0] * len(spans)
    for _name, t0, t1, parent, _counts in spans:
        if parent >= offset:
            child_time[parent - offset] += t1 - t0
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    out: dict[str, float] = {m: 0 for m, unit in PER_LAYER if unit == "count"}
    for i, (name, t0, t1, _parent, counts) in enumerate(spans):
        dur[name] = dur.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            out[key] += value

    for metric, _unit in PER_LAYER:
        if metric.endswith("_self_s"):
            out[metric] = self_s.get(metric[:-len("_self_s")], 0.0)
        elif metric.endswith("_s"):
            out[metric] = dur.get(metric[:-len("_s")], 0.0)
    out["detect.sample_indices_calls"] = calls.get("detect.sample_indices", 0)
    out["metrics.reports"] = calls.get("metrics.assemble_report", 0)
    out["cli.commands"] = sum(calls.get(f"cli.{c}", 0) for c in CLI_COMMANDS)
    report_s = dur.get("metrics.assemble_report", 0.0)
    out["metrics.event_index_share"] = (dur.get("events.index", 0.0) / report_s
                                        if report_s else 0.0)
    del out["trace.overhead_s"]
    return out
