"""Event-misclassification and detection-quality metrics.

The central quantity is mu, the fraction of event samples flagged as faulty.
`assemble_report` scores every detector the same way: a binary search of its
sorted flag array counts the flagged samples below any index, so the flags in
an index range are a difference of two such counts. Event windows map to
index ranges through `events.event_ranges`, and mu, its first-half-hour
variant and the false-negative ratios are all such differences.
Undefined metrics (empty denominators) are reported as absent, never as 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .detect import DetectionResult
from .errors import ConfigError, DataError
from .events import FIRST_HALF_HOUR_S, event_ranges
from .io import json_fields, json_number, read_json, write_text
from .series import EventWindow, GroundTruthLabels, Series, validate_events

__all__ = [
    "PerEventStat",
    "EvalReport",
    "event_sample_ranges",
    "assemble_report",
    "save_report",
    "load_report",
]

REPORT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PerEventStat:
    """Sample bookkeeping for one event window."""

    event_index: int
    samples: int
    misclassified: int
    opening_samples: int
    opening_misclassified: int


@dataclass(frozen=True)
class EvalReport:
    """Misclassification summary for one detector run.

    Absent (undefined) metrics hold None and are omitted from the JSON form.
    """

    mu: float | None
    mu_first_half_hour: float | None
    false_negative_ratio: float | None
    per_event: tuple[PerEventStat, ...]
    parameters: dict
    fault_kind: str | None = None
    noise_fn_per_sample: float | None = None


def _infer_kind(truth: GroundTruthLabels) -> str:
    has_short = truth.short_indices.size > 0
    has_noise = bool(truth.noise_windows)
    if has_short and has_noise:
        raise ConfigError("labels hold both fault kinds; pass --fault-kind (kind=) to pick one")
    if has_short:
        return "short"
    if has_noise:
        return "noise"
    return "none"


def event_sample_ranges(s: Series, events: Sequence[EventWindow]) -> np.ndarray:
    """The sample ranges `assemble_report` scores, one column per window in
    order of start: window i covers samples [r[0, i], r[1, i]) of `s` and its
    opening half hour [r[0, i], r[2, i]). Refuses overlapping windows.
    Computed once per series and set of windows and kept read-only."""
    events = tuple(events)

    def ranges():
        ordered = sorted(events, key=lambda e: e.start)
        validate_events(ordered)
        t = s.times()
        lo, hi = event_ranges(t, ordered)
        _, op_hi = event_ranges(t, ordered, FIRST_HALF_HOUR_S)
        return np.stack([lo, hi, op_hi])
    return s.derived(("ranges", events), ranges)


def assemble_report(s: Series, result: DetectionResult,
                    events: Sequence[EventWindow],
                    truth: GroundTruthLabels | None = None,
                    kind: str | None = None,
                    parameters: dict | None = None) -> EvalReport:
    """Combine flags, events, and (optionally) fault labels into one report.

    mu and mu_first_half_hour cover the event windows; the false-negative
    ratio covers the labeled faults of `kind` (inferred when the labels hold
    a single kind). Metrics without a denominator come back as None. Flags
    and labels must index into `s`.
    """
    lo, hi, op_hi = event_sample_ranges(s, events)
    if truth is not None:
        truth.check_bounds(len(s))
    flag_idx = result.sample_indices()
    if flag_idx.size and (flag_idx[0] < 0 or flag_idx[-1] >= len(s)):
        raise DataError(f"flagged indices {flag_idx[0]}..{flag_idx[-1]} fall outside "
                        f"[0, {len(s)})")
    # c(k) = flags among samples [0, k), so range [lo, hi) holds c(hi) - c(lo).
    c = flag_idx.searchsorted

    c_lo = c(lo)
    samples, hits = (hi - lo).tolist(), (c(hi) - c_lo).tolist()
    opening, op_hits = (op_hi - lo).tolist(), (c(op_hi) - c_lo).tolist()
    stats = tuple(map(PerEventStat, range(len(samples)), samples, hits, opening, op_hits))
    total, hit, op_total, op_hit = map(sum, (samples, hits, opening, op_hits))
    mu = hit / total if total else None
    mu_fhh = op_hit / op_total if op_total else None

    fn = None
    per_sample = None
    resolved_kind = None
    if truth is not None:
        resolved_kind = kind if kind is not None else _infer_kind(truth)
        if resolved_kind == "none":
            resolved_kind = None
        elif resolved_kind == "short":
            short = truth.short_indices
            if short.size:
                fn = int(np.count_nonzero(c(short + 1) == c(short))) / short.size
        elif resolved_kind == "noise":
            if truth.noise_windows:
                start, length = np.array(truth.noise_windows, dtype=np.int64).T
                inside = c(start + length) - c(start)
                fn = int(np.count_nonzero(inside == 0)) / len(truth.noise_windows)
                burst_samples = int(length.sum())
                per_sample = (burst_samples - int(inside.sum())) / burst_samples
        else:
            raise ConfigError(f"unknown fault kind {resolved_kind!r}")

    return EvalReport(mu=mu, mu_first_half_hour=mu_fhh, false_negative_ratio=fn,
                      per_event=stats, parameters=dict(parameters or {}),
                      fault_kind=resolved_kind, noise_fn_per_sample=per_sample)


def report_to_dict(report: EvalReport) -> dict:
    """The JSON form: `version`, then every field that is not None. Built
    field by field, since `dataclasses.asdict` deep-copies every value."""
    doc = {"version": REPORT_FORMAT_VERSION}
    for f in fields(EvalReport):
        value = getattr(report, f.name)
        if value is not None:
            doc[f.name] = value
    doc["per_event"] = [dict(vars(st)) for st in report.per_event]
    doc["parameters"] = dict(report.parameters)
    return doc


def report_from_dict(doc: dict) -> EvalReport:
    """The report of a `report_to_dict` document: its metrics are JSON numbers
    or absent, its per-event counts JSON integers."""
    if not isinstance(doc, dict) or doc.get("version") != REPORT_FORMAT_VERSION:
        raise DataError("unsupported report document")
    json_fields(doc, "report", ["version", *(f.name for f in fields(EvalReport))])
    per_event, parameters = doc.get("per_event", []), doc.get("parameters", {})
    if not (isinstance(per_event, list) and isinstance(parameters, dict)):
        raise DataError("malformed report document")
    kind = doc.get("fault_kind")
    if kind not in (None, "short", "noise"):
        raise DataError(f"report fault_kind must be short or noise, got {kind!r}")
    metrics = {key: None if doc.get(key) is None else json_number(doc[key], f"report {key}")
               for key in ("mu", "mu_first_half_hour", "false_negative_ratio",
                           "noise_fn_per_sample")}
    keys = [f.name for f in fields(PerEventStat)]
    stats = (json_fields(st, "report per_event entry", keys, keys) for st in per_event)
    return EvalReport(**metrics, parameters=dict(parameters), fault_kind=kind, per_event=tuple(
        PerEventStat(**{k: json_number(v, f"report per_event {k}", int) for k, v in st.items()})
        for st in stats))


# One per-event row as `json.dumps(indent=2, sort_keys=True)` lays it out
# inside a report.
_ROW_KEYS = sorted(f.name for f in fields(PerEventStat))
_ROW = "\n    {" + ",".join(f'\n      "{key}": %d' for key in _ROW_KEYS) + "\n    }"
_row_counts = attrgetter(*_ROW_KEYS)


def report_json(report: EvalReport) -> str:
    """`json.dumps(report_to_dict(report), indent=2, sort_keys=True)`.

    With `indent` set, `json` encodes in pure Python, and the per-event rows
    are most of a report, so rows of int counts are written from a template
    into the top-level `"per_event": []` of the report without them (a
    nested key sits deeper, and a string holds no raw newline).
    """
    rows = list(map(_row_counts, report.per_event))
    if not set(map(type, chain.from_iterable(rows))) <= {int}:
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True)  # json's own forms
    head = json.dumps(report_to_dict(replace(report, per_event=())), indent=2, sort_keys=True)
    if not rows:
        return head
    body = ",".join(map(_ROW.__mod__, rows))
    return head.replace('\n  "per_event": []', f'\n  "per_event": [{body}\n  ]', 1)


def save_report(path: str | Path, report: EvalReport) -> None:
    write_text(path, report_json(report))


def load_report(path: str | Path) -> EvalReport:
    return report_from_dict(read_json(path))
