"""Event-misclassification and detection-quality metrics.

The central quantity is mu, the fraction of event samples flagged as faulty.
`assemble_report` scores every detector the same way: its flags, windows
expanded to samples, become one mask over the series, and one prefix sum of
that mask counts the flagged samples in any index range. Event windows map
to index ranges through `events.event_ranges`, so mu, its first-half-hour
variant and the false-negative ratios are all differences of that sum.
Undefined metrics (empty denominators) are reported as absent, never as 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .detect import DetectionResult
from .errors import ConfigError, DataError
from .events import FIRST_HALF_HOUR_S, event_ranges
from .io import read_json
from .series import EventWindow, GroundTruthLabels, Series, validate_events

__all__ = [
    "PerEventStat",
    "EvalReport",
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
    has_short = bool(truth.short_indices)
    has_noise = bool(truth.noise_windows)
    if has_short and has_noise:
        raise ConfigError("labels hold both fault kinds; pass kind explicitly")
    if has_short:
        return "short"
    if has_noise:
        return "noise"
    return "none"


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
    ordered = sorted(events, key=lambda e: e.start)
    validate_events(ordered)
    if truth is not None:
        truth.check_bounds(len(s))
    flag_idx = result.sample_indices()
    if flag_idx.size and (flag_idx[0] < 0 or flag_idx[-1] >= len(s)):
        raise DataError(f"flagged indices {flag_idx[0]}..{flag_idx[-1]} fall outside "
                        f"[0, {len(s)})")
    flagged = np.zeros(len(s), dtype=bool)
    flagged[flag_idx] = True
    # c[k] = flags among samples [0, k), so range [lo, hi) holds c[hi] - c[lo].
    c = np.zeros(len(s) + 1, dtype=np.int64)
    np.cumsum(flagged, out=c[1:])

    t = s.times()
    lo, hi = event_ranges(t, ordered)
    _, op_hi = event_ranges(t, ordered, FIRST_HALF_HOUR_S)
    counts = zip((hi - lo).tolist(), (c[hi] - c[lo]).tolist(),
                 (op_hi - lo).tolist(), (c[op_hi] - c[lo]).tolist())
    stats = tuple(PerEventStat(i, *row) for i, row in enumerate(counts))
    total = sum(st.samples for st in stats)
    hit = sum(st.misclassified for st in stats)
    op_total = sum(st.opening_samples for st in stats)
    op_hit = sum(st.opening_misclassified for st in stats)
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
            if truth.short_indices:
                missed = int(np.count_nonzero(~flagged[list(truth.short_indices)]))
                fn = missed / len(truth.short_indices)
        elif resolved_kind == "noise":
            if truth.noise_windows:
                start, length = np.array(truth.noise_windows, dtype=np.int64).T
                inside = c[start + length] - c[start]
                fn = int(np.count_nonzero(inside == 0)) / len(truth.noise_windows)
                burst_samples = int(length.sum())
                per_sample = (burst_samples - int(inside.sum())) / burst_samples
        else:
            raise ConfigError(f"unknown fault kind {resolved_kind!r}")

    return EvalReport(mu=mu, mu_first_half_hour=mu_fhh, false_negative_ratio=fn,
                      per_event=stats, parameters=dict(parameters or {}),
                      fault_kind=resolved_kind, noise_fn_per_sample=per_sample)


def report_to_dict(report: EvalReport) -> dict:
    doc: dict = {
        "version": REPORT_FORMAT_VERSION,
        "per_event": [asdict(st) for st in report.per_event],
        "parameters": report.parameters,
    }
    for key in ("mu", "mu_first_half_hour", "false_negative_ratio",
                "fault_kind", "noise_fn_per_sample"):
        value = getattr(report, key)
        if value is not None:
            doc[key] = value
    return doc


def report_from_dict(doc: dict) -> EvalReport:
    if not isinstance(doc, dict) or doc.get("version") != REPORT_FORMAT_VERSION:
        raise DataError("unsupported report document")
    try:
        stats = tuple(PerEventStat(**st) for st in doc.get("per_event", []))
        return EvalReport(
            mu=doc.get("mu"),
            mu_first_half_hour=doc.get("mu_first_half_hour"),
            false_negative_ratio=doc.get("false_negative_ratio"),
            per_event=stats,
            parameters=dict(doc.get("parameters", {})),
            fault_kind=doc.get("fault_kind"),
            noise_fn_per_sample=doc.get("noise_fn_per_sample"),
        )
    except (KeyError, TypeError):
        raise DataError("malformed report document") from None


def save_report(path: str | Path, report: EvalReport) -> None:
    Path(path).write_text(json.dumps(report_to_dict(report),
                                     indent=2, sort_keys=True) + "\n")


def load_report(path: str | Path) -> EvalReport:
    return report_from_dict(read_json(path))
