"""Seeded fault injection: multiplicative spikes and variance bursts.

All randomness comes from NumPy's PCG64 generator (`np.random.default_rng`),
a named, documented algorithm with stable cross-platform streams, so a given
(series, plan) pair reproduces bit-identically. Spike and burst injection use
distinct child streams ((seed, 0) and (seed, 1)) so chained runs under one
seed never share draws.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .io import json_fields, json_list, json_number, read_json, write_json
from .series import GroundTruthLabels, Series

__all__ = [
    "InjectionPlan",
    "inject_short",
    "inject_noise",
    "merge_labels",
    "save_labels",
    "load_labels",
]

# Bounded retries when rejection-sampling a burst start disjoint from the
# bursts already placed.
PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class InjectionPlan:
    """What to inject and how much.

    Fractions are of the series length; `short_intensity` is the relative
    spike size (value becomes v * (1 + f)); `noise_multiplier` scales the
    added noise std in units of the caller-supplied base sigma. Fault counts
    use Python round() (banker's rounding at exact halves).
    """

    seed: int
    short_intensity: float = 0.5
    short_fraction: float = 0.015
    noise_multiplier: float = 1.5
    noise_burst_lengths: tuple[int, ...] = (144, 360)
    noise_total_fraction: float = 0.065

    def __post_init__(self):
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (math.isfinite(self.short_intensity) and self.short_intensity > 0):
            raise ConfigError(f"short_intensity must be > 0, got {self.short_intensity}")
        if not 0 < self.short_fraction < 1:
            raise ConfigError(f"short_fraction must lie in (0, 1), got {self.short_fraction}")
        if not 0 <= self.noise_multiplier < math.inf or math.copysign(1, self.noise_multiplier) < 0:
            raise ConfigError(f"noise_multiplier must be >= 0, got {self.noise_multiplier}")
        if not 0 < self.noise_total_fraction < 1:
            raise ConfigError(
                f"noise_total_fraction must lie in (0, 1), got {self.noise_total_fraction}")
        lengths = tuple(int(x) for x in self.noise_burst_lengths)
        if not lengths or any(x < 2 for x in lengths):
            raise ConfigError(f"burst lengths must be integers >= 2, got {lengths}")
        object.__setattr__(self, "noise_burst_lengths", lengths)


def inject_short(s: Series, plan: InjectionPlan) -> tuple[Series, GroundTruthLabels]:
    """Turn round(short_fraction * n) samples into multiplicative spikes.

    Exactly that many distinct indices are drawn uniformly without
    replacement; each selected value v becomes v * (1 + short_intensity).
    Every other sample is copied bit-identically.
    """
    n = len(s)
    count = int(round(plan.short_fraction * n))
    if count < 1:
        raise ConfigError(
            f"degenerate plan: fraction {plan.short_fraction} of {n} samples "
            f"rounds to zero faults")
    rng = np.random.default_rng([plan.seed, 0])
    idx = rng.choice(n, size=count, replace=False)
    out = s.values.copy()
    out[idx] = out[idx] * (1.0 + plan.short_intensity)
    return s.with_values(out), GroundTruthLabels(short_indices=idx)


def inject_noise(s: Series, plan: InjectionPlan,
                 base_sigma: float) -> tuple[Series, GroundTruthLabels]:
    """Add zero-mean Gaussian noise bursts with std noise_multiplier * base_sigma.

    Burst lengths are drawn uniformly among the plan lengths still fitting
    the remaining label budget round(noise_total_fraction * n); starts are
    rejection-sampled so bursts never overlap. Placement stops when no
    length fits, leaving the labeled total within one burst length of the
    budget.
    """
    if not (math.isfinite(base_sigma) and math.copysign(1, base_sigma) > 0):
        raise ConfigError(f"base_sigma must be >= 0, got {base_sigma}")
    n = len(s)
    lengths = sorted(plan.noise_burst_lengths)
    budget = int(round(plan.noise_total_fraction * n))
    if n < lengths[-1]:
        raise DataError(f"series too short for a single burst "
                        f"({n} < {lengths[-1]} samples)")
    if budget < lengths[0]:
        raise DataError(f"label budget of {budget} samples cannot fit the "
                        f"shortest burst ({lengths[0]} samples)")

    rng = np.random.default_rng([plan.seed, 1])
    occupied = np.zeros(n, dtype=bool)
    windows: list[tuple[int, int]] = []
    remaining = budget
    while True:
        fitting = [ln for ln in lengths if ln <= remaining]
        if not fitting:
            break
        length = fitting[int(rng.integers(len(fitting)))]
        start = -1
        for _ in range(PLACEMENT_ATTEMPTS):
            cand = int(rng.integers(0, n - length + 1))
            if not occupied[cand:cand + length].any():
                start = cand
                break
        if start < 0:  # never for the first burst: nothing is occupied, and n >= lengths[-1]
            break
        occupied[start:start + length] = True
        windows.append((start, length))
        remaining -= length

    out = s.values.copy()
    scale = plan.noise_multiplier * base_sigma
    for start, length in windows:
        out[start:start + length] += rng.normal(0.0, scale, size=length)
    return s.with_values(out), GroundTruthLabels(noise_windows=tuple(windows))


def merge_labels(a: GroundTruthLabels, b: GroundTruthLabels) -> GroundTruthLabels:
    """Union of two label sets (e.g. after chaining both injectors)."""
    return GroundTruthLabels(short_indices=np.concatenate([a.short_indices, b.short_indices]),
                             noise_windows=a.noise_windows + b.noise_windows)


def labels_to_dict(labels: GroundTruthLabels, plan: InjectionPlan) -> dict:
    return {
        "short": labels.short_indices.tolist(),
        "noise": [{"start": int(s), "len": int(ln)} for s, ln in labels.noise_windows],
        "seed": plan.seed,
        "plan": asdict(plan) | {"noise_burst_lengths": list(plan.noise_burst_lengths)},
    }


def labels_from_dict(doc: dict) -> GroundTruthLabels:
    """Labels of a `labels_to_dict` document; indices must be JSON integers."""
    doc = json_fields(doc, "labels", ("short", "noise", "seed", "plan"))
    short = tuple(json_number(i, "labels.short index", int)
                  for i in json_list(doc.get("short", []), "labels.short"))
    bursts = [json_fields(w, "labels.noise burst", ("start", "len"), ("start", "len"))
              for w in json_list(doc.get("noise", []), "labels.noise")]
    noise = tuple((json_number(w["start"], "labels.noise start", int),
                   json_number(w["len"], "labels.noise len", int)) for w in bursts)
    return GroundTruthLabels(short_indices=short, noise_windows=noise)


def save_labels(path: str | Path, labels: GroundTruthLabels, plan: InjectionPlan) -> None:
    write_json(path, labels_to_dict(labels, plan))


def load_labels(path: str | Path) -> GroundTruthLabels:
    return labels_from_dict(read_json(path))
