"""Event-misclassification and detection-quality metrics.

The central quantity is mu, the fraction of event samples flagged as faulty.
It is computed per-sample (jump/estimation detectors) or as flagged-window
overlap per unit event duration (window detector); on an evenly sampled grid
both reduce to the same per-sample ratio. Undefined metrics (empty
denominators) are reported as absent, never as 0.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .detect import DetectionResult
from .errors import ConfigError, DataError, UndefinedMetricError
from .events import first_half_hour_indices, per_event_indices
from .io import read_json
from .series import EventWindow, GroundTruthLabels, Series, validate_events

__all__ = [
    "mu_samples",
    "mu_duration",
    "false_negative_ratio",
    "noise_fn_per_sample",
    "PerEventStat",
    "EvalReport",
    "assemble_report",
    "save_report",
    "load_report",
]

REPORT_FORMAT_VERSION = 1


def mu_samples(flagged_indices, event_indices) -> float:
    """Fraction of event samples that were flagged.

    Raises UndefinedMetricError when there are no event samples.
    """
    ev = np.unique(np.asarray(list(event_indices), dtype=np.int64))
    if ev.size == 0:
        raise UndefinedMetricError("mu is undefined without event samples")
    flags = np.unique(np.asarray(list(flagged_indices), dtype=np.int64))
    hit = np.intersect1d(flags, ev, assume_unique=True).size
    return hit / ev.size


def mu_duration(flagged_windows, events: Sequence[EventWindow], s: Series) -> float:
    """Flagged share of total event duration, on the series' sample grid.

    Each (start, length) window is expanded to sample indices; for event i,
    D_i counts its samples covered by flagged windows and E_i its samples in
    total. Returns sum(D_i) / sum(E_i).
    """
    validate_events(sorted(events, key=lambda e: e.start))
    flagged = np.zeros(len(s), dtype=bool)
    for start, length in flagged_windows:
        if start < 0 or start + length > len(s):
            raise ConfigError(f"flagged window ({start}, {length}) out of bounds")
        flagged[start:start + length] = True
    total = 0
    hit = 0
    for idx in per_event_indices(s, events):
        total += idx.size
        hit += int(flagged[idx].sum())
    if total == 0:
        raise UndefinedMetricError("mu is undefined without event samples")
    return hit / total


def false_negative_ratio(result: DetectionResult, truth: GroundTruthLabels,
                         kind: str) -> float:
    """Fraction of injected faults the detector missed.

    kind "short": per labeled index; a fault is missed when its sample is
    not flagged. kind "noise": per labeled burst; a burst counts as detected
    when the flags overlap it by at least one sample.
    """
    flagged = result.sample_indices()
    if kind == "short":
        if not truth.short_indices:
            raise UndefinedMetricError("no short faults labeled")
        labeled = np.array(truth.short_indices, dtype=np.int64)
        missed = int(np.isin(labeled, flagged, invert=True).sum())
        return missed / labeled.size
    if kind == "noise":
        if not truth.noise_windows:
            raise UndefinedMetricError("no noise bursts labeled")
        missed = 0
        for start, length in truth.noise_windows:
            inside = flagged[(flagged >= start) & (flagged < start + length)]
            if inside.size == 0:
                missed += 1
        return missed / len(truth.noise_windows)
    raise ConfigError(f"unknown fault kind {kind!r}")


def noise_fn_per_sample(result: DetectionResult, truth: GroundTruthLabels) -> float:
    """Per-sample variant of the noise miss rate: unflagged share of burst samples."""
    if not truth.noise_windows:
        raise UndefinedMetricError("no noise bursts labeled")
    labeled = np.array(truth.noise_sample_indices, dtype=np.int64)
    missed = int(np.isin(labeled, result.sample_indices(), invert=True).sum())
    return missed / labeled.size


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

    stats = []
    opening = first_half_hour_indices(s, ordered)
    for i, idx in enumerate(per_event_indices(s, ordered)):
        op = opening[i]
        stats.append(PerEventStat(
            event_index=i,
            samples=int(idx.size),
            misclassified=int(flagged[idx].sum()),
            opening_samples=int(op.size),
            opening_misclassified=int(flagged[op].sum()),
        ))
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
            fn = false_negative_ratio(result, truth, "short") if truth.short_indices else None
        elif resolved_kind == "noise":
            if truth.noise_windows:
                fn = false_negative_ratio(result, truth, "noise")
                per_sample = noise_fn_per_sample(result, truth)
        else:
            raise ConfigError(f"unknown fault kind {resolved_kind!r}")

    return EvalReport(mu=mu, mu_first_half_hour=mu_fhh, false_negative_ratio=fn,
                      per_event=tuple(stats), parameters=dict(parameters or {}),
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
