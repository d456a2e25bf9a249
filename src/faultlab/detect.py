"""Fault detectors for sensor series.

Three rules are implemented:

* short: flag a sample when its jump from the immediately preceding raw
  sample exceeds a threshold delta.
* noise: flag every sample of each tumbling window whose sample standard
  deviation leaves the band learned from fault-free training data.
* llse: predict each sample from every neighbor node through an affine
  least-squares fit, flag samples where enough neighbors disagree beyond a
  per-pair percentile threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError, NumericError
from .io import json_fields, json_list, json_number, read_json, write_json
from .series import Series, index_array

__all__ = [
    "ShortParams",
    "NoiseModel",
    "NeighborFit",
    "LlseModel",
    "DetectionResult",
    "short_jumps",
    "short_detect",
    "window_stds",
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


@dataclass(frozen=True, eq=False)  # an array field has no truth value to compare by
class DetectionResult:
    """Flags produced by one detector run.

    `flagged_samples` is the read-only, sorted, distinct int64 array of the
    flagged sample indices; a window the noise rule rejects flags each of its
    samples.
    """

    source: str
    flagged_samples: np.ndarray = ()

    flagged_windows = ()  # not a field: bench/spans.py reads it until ROADMAP item 3

    def __post_init__(self):
        if self.source not in ("short", "noise", "llse"):
            raise ConfigError(f"unknown flag source {self.source!r}")
        object.__setattr__(self, "flagged_samples", index_array(self.flagged_samples))

    def sample_indices(self) -> np.ndarray:
        """All flagged sample indices, sorted and distinct."""
        return self.flagged_samples


def short_jumps(s: Series) -> np.ndarray:
    """|s[k] - s[k-1]| for every k >= 1, the jumps the short rule thresholds;
    an infinite jump reads inf."""
    with np.errstate(over="ignore"):
        return np.abs(np.diff(s.values))


def short_detect(s: Series, params: ShortParams, *,
                 jumps: np.ndarray | None = None) -> DetectionResult:
    """Flag samples whose jump from the previous raw sample exceeds delta.

    Sample k >= 1 is flagged iff |s[k] - s[k-1]| > delta (strictly); sample 0
    is never flagged. The predecessor is always the raw value, even when it
    was itself flagged. `jumps`, when given, is `short_jumps(s)` computed
    once for several thresholds; it must come from this same series.
    """
    if len(s) < 2:
        raise DataError("short_detect needs at least 2 samples")
    if jumps is None:
        jumps = short_jumps(s)
    elif jumps.shape != (len(s) - 1,):
        raise DataError(f"jumps of shape {jumps.shape} do not fit a series of {len(s)} samples")
    return DetectionResult("short", np.nonzero(jumps > params.delta)[0] + 1)


def window_stds(s: Series, window_len: int) -> np.ndarray:
    """Sample std (n-1 denominator) of each full tumbling window of `s` from
    index 0; a window whose std overflows reads inf."""
    m = len(s) // window_len
    with np.errstate(over="ignore"):
        return s.values[: m * window_len].reshape(m, window_len).std(axis=1, ddof=1)


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
    stds = window_stds(train, window_len)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite band raises below
        sigma_train, spread = float(stds.mean()), float(stds.std(ddof=1))
    if not (math.isfinite(sigma_train) and math.isfinite(spread)):
        raise NumericError("noise band overflowed: window standard deviations are not finite")
    return NoiseModel(window_len, sigma_train, spread)


def noise_detect(s: Series, model: NoiseModel, allow_multiplier: float, *,
                 stds: np.ndarray | None = None) -> DetectionResult:
    """Flag every sample of the tumbling windows whose sample std leaves the band.

    The band is sigma_train +/- allow_multiplier * sigma_hist_spread and is
    inclusive: a window is flagged only when its std falls strictly outside.
    Windows tile the series from sample 0; a trailing remainder shorter than
    the window is not evaluated. `stds`, when given, is
    `window_stds(s, model.window_len)` computed once for several multipliers;
    it must come from this same series.
    """
    if not (math.isfinite(allow_multiplier) and allow_multiplier >= 0):
        raise ConfigError(f"allow_multiplier must be >= 0, got {allow_multiplier}")
    if len(s) < model.window_len:
        raise DataError(
            f"series shorter than one window ({len(s)} < {model.window_len})")
    if stds is None:
        stds = window_stds(s, model.window_len)
    elif stds.shape != (len(s) // model.window_len,):
        raise DataError(f"window stds of shape {stds.shape} do not fit a series of "
                        f"{len(s)} samples in windows of {model.window_len}")
    allow = allow_multiplier * model.sigma_hist_spread
    lo = model.sigma_train - allow
    hi = model.sigma_train + allow
    rejected = (stds < lo) | (stds > hi)
    return DetectionResult("noise", np.nonzero(np.repeat(rejected, model.window_len))[0])


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


def llse_fit(train_target: Series, train_neighbor: Series, percentile_p: float = 95.0,
             signed: bool = False) -> tuple[float, float, float]:
    """Fit target ~ beta0 + beta1 * neighbor and a training-error threshold.

    The coefficients solve the ordinary least-squares normal equations. The
    threshold is the nearest-rank `percentile_p` percentile of the training
    errors; errors are absolute by default, signed (prediction minus target)
    when `signed` is set.

    Returns (beta0, beta1, threshold).
    """
    y = train_target.values
    x = train_neighbor.values
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


def llse_detect(target: Series, neighbors: Sequence[Series], model: LlseModel) -> DetectionResult:
    """Flag samples where at least vote_q neighbors disagree with the target.

    For each fitted neighbor j, the series of `neighbors` with its node id,
    the error is beta0 + beta1 * s_j(t) minus the target sample; it counts as
    a disagreement when it exceeds the pair's threshold (absolute value by
    default, signed when the model is signed).
    """
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
    return DetectionResult("llse", np.nonzero(votes >= model.vote_q)[0])


# --------------------------------------------------------------------------
# Model serialization (versioned JSON)
# --------------------------------------------------------------------------

# A model document holds `version`, `kind`, the fields of the kind's class
# (an llse neighbor: those of NeighborFit) and maybe the `save_model` echo `config`.
MODEL_KINDS = {"short": ShortParams, "noise": NoiseModel, "llse": LlseModel}


def model_to_dict(model) -> dict:
    kind = next((k for k, cls in MODEL_KINDS.items() if isinstance(model, cls)), None)
    if kind is None:
        raise ConfigError(f"cannot serialize model of type {type(model).__name__}")
    doc = {"version": MODEL_FORMAT_VERSION, "kind": kind} | asdict(model)
    if kind == "llse":
        doc["neighbors"] = list(doc["neighbors"])  # a list, as a parsed file holds it
    return doc


def model_from_dict(doc: dict):
    if not isinstance(doc, dict) or doc.get("version") != MODEL_FORMAT_VERSION:
        raise DataError(f"not a model document of format version {MODEL_FORMAT_VERSION}")
    kind = doc.get("kind")
    cls = MODEL_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise DataError(f"unknown model kind {kind!r}")
    what = f"{kind} model"
    fields = cls.__dataclass_fields__
    json_fields(doc, what, ("version", "kind", "config", *fields),
                [key for key in fields if key != "signed"])

    def num(block: dict, key: str, cast: type = float):
        return json_number(block[key], f"{what} {key}", cast)

    # The model classes refuse bad values with ConfigError; in a model file
    # those values are data.
    try:
        if kind == "short":
            return ShortParams(num(doc, "delta"))
        if kind == "noise":
            return NoiseModel(num(doc, "window_len", int), num(doc, "sigma_train"),
                              num(doc, "sigma_hist_spread"))
        fields = NeighborFit.__dataclass_fields__
        neighbors = [json_fields(nb, f"{what} neighbor", fields, fields)
                     for nb in json_list(doc["neighbors"], f"{what} neighbors")]
        fits = tuple(NeighborFit(str(nb["node_id"]), num(nb, "beta0"), num(nb, "beta1"),
                                 num(nb, "threshold")) for nb in neighbors)
        signed = doc.get("signed", False)
        if not isinstance(signed, bool):
            raise DataError(f"llse model 'signed' must be true or false, got {signed!r}")
        return LlseModel(str(doc["target"]), fits, num(doc, "percentile_p"),
                         num(doc, "vote_q", int), signed)
    except ConfigError as exc:
        raise DataError(f"{what}: {exc}") from None


def save_model(path: str | Path, model, config_echo: dict | None = None) -> None:
    doc = model_to_dict(model)
    if config_echo is not None:
        doc["config"] = config_echo
    write_json(path, doc)


def load_model(path: str | Path):
    return model_from_dict(read_json(path))
