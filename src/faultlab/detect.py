"""Fault detectors for sensor series.

Three rules are implemented:

* short: flag a sample when its jump from the immediately preceding raw
  sample exceeds a threshold delta.
* noise: flag whole tumbling windows whose sample standard deviation leaves
  the band learned from fault-free training data.
* llse: predict each sample from every neighbor node through an affine
  least-squares fit, flag samples where enough neighbors disagree beyond a
  per-pair percentile threshold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .io import read_json
from .series import Series

__all__ = [
    "ShortParams",
    "NoiseModel",
    "NeighborFit",
    "LlseModel",
    "DetectionResult",
    "short_detect",
    "noise_train",
    "noise_detect",
    "llse_fit",
    "fit_llse_model",
    "llse_detect",
    "nearest_rank_percentile",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ShortParams:
    """Threshold for the sample-to-sample jump rule, in series units."""

    delta: float

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ConfigError(f"delta must be a finite value > 0, got {self.delta}")


@dataclass(frozen=True)
class NoiseModel:
    """Variance band learned from training data.

    sigma_train is the mean of the per-window sample standard deviations;
    sigma_hist_spread is the sample standard deviation of that histogram.
    """

    window_len: int
    sigma_train: float
    sigma_hist_spread: float

    def __post_init__(self):
        if not (isinstance(self.window_len, int) and self.window_len >= 2):
            raise ConfigError(f"window_len must be an integer >= 2, got {self.window_len}")
        if not (math.isfinite(self.sigma_train) and self.sigma_train >= 0):
            raise ConfigError(f"sigma_train must be >= 0, got {self.sigma_train}")
        if not (math.isfinite(self.sigma_hist_spread) and self.sigma_hist_spread >= 0):
            raise ConfigError(
                f"sigma_hist_spread must be >= 0, got {self.sigma_hist_spread}")


@dataclass(frozen=True)
class NeighborFit:
    """Affine fit predicting the target from one neighbor, plus its error threshold."""

    node_id: str
    beta0: float
    beta1: float
    threshold: float


@dataclass(frozen=True)
class LlseModel:
    """Per-neighbor affine fits with an agreement vote for one target node."""

    target: str
    neighbors: tuple[NeighborFit, ...]
    percentile_p: float
    vote_q: int
    signed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "neighbors", tuple(self.neighbors))
        if not self.neighbors:
            raise ConfigError("llse model needs at least one neighbor")
        if not (isinstance(self.vote_q, int) and self.vote_q >= 1):
            raise ConfigError(f"vote_q must be an integer >= 1, got {self.vote_q}")
        if self.vote_q > len(self.neighbors):
            raise ConfigError(
                f"vote_q={self.vote_q} exceeds the {len(self.neighbors)} fitted neighbors")
        if not (0 < self.percentile_p < 100):
            raise ConfigError(f"percentile_p must lie in (0, 100), got {self.percentile_p}")


@dataclass(frozen=True)
class DetectionResult:
    """Flags produced by one detector run.

    Sample-level detectors (short, llse) fill `flagged_samples`; the window
    detector (noise) fills `flagged_windows` as (start index, length) pairs.
    """

    source: str
    flagged_samples: tuple[int, ...] = ()
    flagged_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.source not in ("short", "noise", "llse"):
            raise ConfigError(f"unknown flag source {self.source!r}")
        object.__setattr__(self, "flagged_samples",
                           tuple(sorted(int(i) for i in self.flagged_samples)))
        object.__setattr__(self, "flagged_windows",
                           tuple(sorted((int(a), int(b)) for a, b in self.flagged_windows)))

    def sample_indices(self) -> np.ndarray:
        """All flagged sample indices, windows expanded, sorted and unique."""
        idx = list(self.flagged_samples)
        for start, length in self.flagged_windows:
            idx.extend(range(start, start + length))
        return np.unique(np.array(idx, dtype=np.int64))

    def to_flags(self) -> list[tuple[int, str]]:
        """(index, flag_source) pairs for CSV export."""
        return [(int(i), self.source) for i in self.sample_indices()]


def short_detect(s: Series, params: ShortParams) -> DetectionResult:
    """Flag samples whose jump from the previous raw sample exceeds delta.

    Sample k >= 1 is flagged iff |s[k] - s[k-1]| > delta (strictly); sample 0
    is never flagged. The predecessor is always the raw value, even when it
    was itself flagged.
    """
    if len(s) < 2:
        raise DataError("short_detect needs at least 2 samples")
    jumps = np.abs(np.diff(s.values))
    flagged = np.nonzero(jumps > params.delta)[0] + 1
    return DetectionResult("short", tuple(int(i) for i in flagged))


def _window_stds(values: np.ndarray, window_len: int) -> np.ndarray:
    """Sample std (n-1 denominator) of each full tumbling window from index 0."""
    m = values.shape[0] // window_len
    return values[: m * window_len].reshape(m, window_len).std(axis=1, ddof=1)


def noise_train(train: Series, window_len: int = 18) -> NoiseModel:
    """Learn the variance band from fault-free training data.

    The training series is cut into tumbling windows of exactly `window_len`
    samples (a short trailing remainder is dropped); each window contributes
    its sample standard deviation. The model keeps the mean of those values
    and their sample standard deviation.
    """
    if not (isinstance(window_len, int) and window_len >= 2):
        raise ConfigError(f"window_len must be an integer >= 2, got {window_len}")
    if len(train) < 2 * window_len:
        raise DataError(
            f"insufficient training data: need >= {2 * window_len} samples, "
            f"got {len(train)}")
    stds = _window_stds(train.values, window_len)
    return NoiseModel(window_len, float(stds.mean()), float(stds.std(ddof=1)))


def noise_detect(s: Series, model: NoiseModel, allow_multiplier: float) -> DetectionResult:
    """Flag tumbling windows whose sample std leaves the allowed band.

    The band is sigma_train +/- allow_multiplier * sigma_hist_spread and is
    inclusive: a window is flagged only when its std falls strictly outside.
    Windows tile the series from sample 0; a trailing remainder shorter than
    the window is not evaluated.
    """
    if not (math.isfinite(allow_multiplier) and allow_multiplier >= 0):
        raise ConfigError(f"allow_multiplier must be >= 0, got {allow_multiplier}")
    if len(s) < model.window_len:
        raise DataError(
            f"series shorter than one window ({len(s)} < {model.window_len})")
    stds = _window_stds(s.values, model.window_len)
    allow = allow_multiplier * model.sigma_hist_spread
    lo = model.sigma_train - allow
    hi = model.sigma_train + allow
    flagged = np.nonzero((stds < lo) | (stds > hi))[0]
    windows = tuple((int(i) * model.window_len, model.window_len) for i in flagged)
    return DetectionResult("noise", (), windows)


def nearest_rank_percentile(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    if not (0 < p < 100):
        raise ConfigError(f"percentile must lie in (0, 100), got {p}")
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    if n == 0:
        raise DataError("percentile of an empty sample is undefined")
    r = p * n / 100.0
    rank = max(1, math.ceil(r - 1e-9 * max(1.0, abs(r))))
    return float(v[rank - 1])


def _series_values(x) -> np.ndarray:
    if isinstance(x, Series):
        return x.values
    return np.asarray(x, dtype=np.float64)


def llse_fit(train_target, train_neighbor, percentile_p: float = 95.0,
             signed: bool = False) -> tuple[float, float, float]:
    """Fit target ~ beta0 + beta1 * neighbor and a training-error threshold.

    The coefficients solve the ordinary least-squares normal equations. The
    threshold is the nearest-rank `percentile_p` percentile of the training
    errors; errors are absolute by default, signed (prediction minus target)
    when `signed` is set.

    Returns (beta0, beta1, threshold).
    """
    y = _series_values(train_target)
    x = _series_values(train_neighbor)
    if y.shape[0] != x.shape[0]:
        raise DataError(f"bad pairing: target has {y.shape[0]} samples, "
                        f"neighbor has {x.shape[0]}")
    n = y.shape[0]
    if n < 3:
        raise DataError(f"llse_fit needs at least 3 samples, got {n}")
    if np.ptp(x) == 0:
        raise DataError("unusable neighbor: constant training series")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise below
        sx = float(x.sum())
        sy = float(y.sum())
        sxx = float((x * x).sum())
        sxy = float((x * y).sum())
    if not all(map(math.isfinite, (sx, sy, sxx, sxy))):
        raise NumericError("normal-equation sums overflowed")
    a = np.array([[float(n), sx], [sx, sxx]])
    b = np.array([sy, sxy])
    try:
        beta0, beta1 = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"normal equations are singular: {exc}") from None
    if not (math.isfinite(beta0) and math.isfinite(beta1)):
        raise NumericError("least-squares fit produced non-finite coefficients")
    err = (beta0 + beta1 * x) - y
    if not signed:
        err = np.abs(err)
    threshold = nearest_rank_percentile(err, percentile_p)
    return float(beta0), float(beta1), float(threshold)


def fit_llse_model(target: Series, neighbors: Sequence[Series],
                   percentile_p: float = 95.0, vote_q: int = 2,
                   signed: bool = False) -> LlseModel:
    """Fit one NeighborFit per neighbor series and bundle them with the vote."""
    if not neighbors:
        raise DataError("fit_llse_model needs at least one neighbor series")
    fits = []
    for nb in neighbors:
        if not target.same_grid(nb):
            raise DataError(f"neighbor {nb.node_id!r} is not aligned with "
                            f"target {target.node_id!r}")
        beta0, beta1, threshold = llse_fit(target, nb, percentile_p, signed)
        fits.append(NeighborFit(nb.node_id, beta0, beta1, threshold))
    return LlseModel(target.node_id, tuple(fits), float(percentile_p),
                     int(vote_q), bool(signed))


def llse_detect(target: Series, neighbors: Mapping[str, Series] | Sequence[Series],
                model: LlseModel) -> DetectionResult:
    """Flag samples where at least vote_q neighbors disagree with the target.

    For each fitted neighbor j the error is beta0 + beta1 * s_j(t) minus the
    target sample; it counts as a disagreement when it exceeds the pair's
    threshold (absolute value by default, signed when the model is signed).
    """
    if not isinstance(neighbors, Mapping):
        neighbors = {nb.node_id: nb for nb in neighbors}
    votes = np.zeros(len(target), dtype=np.int64)
    for fit in model.neighbors:
        nb = neighbors.get(fit.node_id)
        if nb is None:
            raise DataError(f"missing neighbor series {fit.node_id!r}")
        if not target.same_grid(nb):
            raise DataError(f"neighbor {fit.node_id!r} is not aligned with "
                            f"target {target.node_id!r}")
        err = (fit.beta0 + fit.beta1 * nb.values) - target.values
        if not model.signed:
            err = np.abs(err)
        votes += err > fit.threshold
    flagged = np.nonzero(votes >= model.vote_q)[0]
    return DetectionResult("llse", tuple(int(i) for i in flagged))


# --------------------------------------------------------------------------
# Model serialization (versioned JSON)
# --------------------------------------------------------------------------

def model_to_dict(model) -> dict:
    if isinstance(model, ShortParams):
        return {"version": MODEL_FORMAT_VERSION, "kind": "short", "delta": model.delta}
    if isinstance(model, NoiseModel):
        return {"version": MODEL_FORMAT_VERSION, "kind": "noise",
                "window_len": model.window_len,
                "sigma_train": model.sigma_train,
                "sigma_hist_spread": model.sigma_hist_spread}
    if isinstance(model, LlseModel):
        return {"version": MODEL_FORMAT_VERSION, "kind": "llse",
                "target": model.target,
                "percentile_p": model.percentile_p,
                "vote_q": model.vote_q,
                "signed": model.signed,
                "neighbors": [asdict(nb) for nb in model.neighbors]}
    raise ConfigError(f"cannot serialize model of type {type(model).__name__}")


def model_from_dict(doc: dict):
    try:
        version = doc["version"]
        kind = doc["kind"]
    except (KeyError, TypeError):
        raise DataError("model document lacks version/kind fields") from None
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    try:
        if kind == "short":
            return ShortParams(float(doc["delta"]))
        if kind == "noise":
            return NoiseModel(int(doc["window_len"]), float(doc["sigma_train"]),
                              float(doc["sigma_hist_spread"]))
        if kind == "llse":
            fits = tuple(NeighborFit(str(nb["node_id"]), float(nb["beta0"]),
                                     float(nb["beta1"]), float(nb["threshold"]))
                         for nb in doc["neighbors"])
            signed = doc.get("signed", False)
            if not isinstance(signed, bool):
                raise DataError(f"llse model 'signed' must be true or false, got {signed!r}")
            return LlseModel(str(doc["target"]), fits, float(doc["percentile_p"]),
                             int(doc["vote_q"]), signed)
    except (KeyError, TypeError, ValueError):
        raise DataError(f"malformed {kind!r} model document") from None
    raise DataError(f"unknown model kind {kind!r}")


def save_model(path: str | Path, model, config_echo: dict | None = None) -> None:
    doc = model_to_dict(model)
    if config_echo is not None:
        doc["config"] = config_echo
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path):
    return model_from_dict(read_json(path))
