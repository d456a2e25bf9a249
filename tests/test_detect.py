"""Detector rules: jump threshold, variance band, cross-sensor estimation."""

import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultlab import (
    ConfigError,
    DataError,
    DetectionResult,
    EventWindow,
    GroundTruthLabels,
    LlseModel,
    Modality,
    NeighborFit,
    NoiseModel,
    NumericError,
    Series,
    ShortParams,
    fit_llse_model,
    llse_detect,
    llse_fit,
    nearest_rank_percentile,
    noise_detect,
    noise_train,
    short_detect,
)
from faultlab.detect import load_model, model_from_dict, model_to_dict, save_model, window_stds
from faultlab.io import write_detection_csv
from faultlab.metrics import assemble_report, report_to_dict


def mk(values, interval=1200.0, start=0.0, node="n1", modality=Modality.BOX_TEMP):
    return Series(node, modality, start, interval, np.asarray(values, dtype=float))


# ---------------------------------------------------------------- short rule

def test_short_detect_examples():
    assert short_detect(mk([10, 20, 21]), ShortParams(5.0)).flagged_samples.tolist() == [1]
    assert short_detect(mk([7.0] * 6), ShortParams(0.001)).flagged_samples.tolist() == []
    assert short_detect(mk([10, 10, 16, 10]), ShortParams(5.0)).flagged_samples.tolist() == [2, 3]


def test_short_detect_event_onset_misclassified():
    # a moisture step at event onset looks exactly like a spike to this rule
    s = mk([0.20, 0.20, 0.35, 0.35], modality=Modality.SOIL_MOISTURE)
    assert 2 in short_detect(s, ShortParams(0.1)).flagged_samples


def test_short_detect_strict_inequality_and_raw_predecessor():
    assert short_detect(mk([0, 5, 0]), ShortParams(5.0)).flagged_samples.tolist() == []
    # sample 2 is compared against the raw (still spiked) sample 1
    assert short_detect(mk([0, 100, 100.1]), ShortParams(5.0)).flagged_samples.tolist() == [1]


def test_short_detect_errors_and_index_zero():
    with pytest.raises(DataError):
        short_detect(mk([1.0]), ShortParams(1.0))
    with pytest.raises(ConfigError):
        ShortParams(0.0)
    with pytest.raises(ConfigError):
        ShortParams(float("nan"))
    s = mk([1000.0, 0.0, 0.0])
    assert 0 not in short_detect(s, ShortParams(1.0)).flagged_samples


def test_short_detect_infinite_jump_is_a_quiet_flag():
    # |1e308 - (-1e308)| overflows to inf, which exceeds every finite delta;
    # under the suite's warnings-as-errors a numpy overflow warning fails here.
    s = mk([1e308, -1e308, 0.0, 1.0])
    assert short_detect(s, ShortParams(1e300)).flagged_samples.tolist() == [1, 2]
    assert short_detect(s, ShortParams(0.5)).flagged_samples.tolist() == [1, 2, 3]


def test_short_monotone_in_delta():
    rng = np.random.default_rng(17)
    for _ in range(200):
        s = mk(np.cumsum(rng.normal(size=40)))
        d1, d2 = sorted(rng.uniform(0.05, 3.0, size=2))
        if d1 == d2:
            continue
        f1 = set(short_detect(s, ShortParams(d1)).flagged_samples.tolist())
        f2 = set(short_detect(s, ShortParams(d2)).flagged_samples.tolist())
        assert f2 <= f1


# ---------------------------------------------------------------- noise rule

def window_std_oracle(values, n):
    out = []
    for k in range(len(values) // n):
        w = values[k * n:(k + 1) * n]
        m = sum(w) / n
        out.append(math.sqrt(sum((x - m) ** 2 for x in w) / (n - 1)))
    return out


def test_noise_train_examples():
    const = noise_train(mk([5.0] * 36), window_len=18)
    assert const.sigma_train == 0.0 and const.sigma_hist_spread == 0.0
    assert const.window_len == 18

    m = noise_train(mk([0, 0, 0, 3, 3, 3, 0, 3, 0]), window_len=3)
    stds = window_std_oracle([0, 0, 0, 3, 3, 3, 0, 3, 0], 3)
    assert stds[0] == 0.0 and stds[1] == 0.0 and abs(stds[2] - math.sqrt(3)) < 1e-12
    assert abs(m.sigma_train - np.mean(stds)) < 1e-12
    assert abs(m.sigma_hist_spread - np.std(stds, ddof=1)) < 1e-12
    assert abs(m.sigma_hist_spread - 1.0) < 1e-12


def test_noise_train_matches_oracle_and_drops_remainder():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        count = int(rng.integers(2 * n, 120))
        vals = rng.normal(0, rng.uniform(0.1, 5), size=count)
        m = noise_train(mk(vals), window_len=n)
        stds = window_std_oracle(list(vals), n)
        assert abs(m.sigma_train - np.mean(stds)) < 1e-9
        assert abs(m.sigma_hist_spread - np.std(stds, ddof=1)) < 1e-9


def test_noise_train_needs_two_windows():
    with pytest.raises(DataError):
        noise_train(mk(np.arange(35.0)), window_len=18)
    noise_train(mk(np.arange(36.0)), window_len=18)


def test_noise_train_invariant_under_permutation_within_windows():
    rng = np.random.default_rng(29)
    vals = rng.normal(size=60)
    shuffled = vals.copy()
    for k in range(0, 60, 5):
        shuffled[k:k + 5] = rng.permutation(shuffled[k:k + 5])
    a = noise_train(mk(vals), window_len=5)
    b = noise_train(mk(shuffled), window_len=5)
    assert a.sigma_train == b.sigma_train
    assert np.isclose(a.sigma_hist_spread, b.sigma_hist_spread, rtol=0, atol=1e-12)


def test_noise_detect_band_is_inclusive():
    model = noise_train(mk([5.0] * 36), window_len=18)
    out = noise_detect(mk([5.0] * 54), model, allow_multiplier=0.0)
    assert out.flagged_samples.tolist() == []  # sigma 0 is within [0, 0]


def test_noise_detect_band_edges():
    # window [-d, 0, d] has sample std exactly d
    model = NoiseModel(window_len=3, sigma_train=1.0, sigma_hist_spread=0.25)
    s = mk([-1.5, 0.0, 1.5])
    assert noise_detect(s, model, 1.0).flagged_samples.tolist() == [0, 1, 2]
    assert noise_detect(s, model, 2.0).flagged_samples.tolist() == []  # band edge inclusive
    assert noise_detect(s, model, 3.0).flagged_samples.tolist() == []


def test_noise_detect_flags_low_side():
    model = NoiseModel(window_len=3, sigma_train=1.0, sigma_hist_spread=0.1)
    flat = mk([2.0, 2.0, 2.0])
    assert noise_detect(flat, model, 1.0).flagged_samples.tolist() == [0, 1, 2]


def test_noise_detect_ignores_trailing_remainder():
    model = NoiseModel(window_len=4, sigma_train=0.0, sigma_hist_spread=0.0)
    vals = [0.0] * 8 + [100.0, -100.0, 50.0]  # wild remainder, not a full window
    out = noise_detect(mk(vals), model, 1.0)
    assert out.flagged_samples.tolist() == []


def test_noise_detect_errors():
    model = NoiseModel(window_len=5, sigma_train=1.0, sigma_hist_spread=0.1)
    with pytest.raises(DataError):
        noise_detect(mk([1.0, 2.0, 3.0]), model, 1.0)
    with pytest.raises(ConfigError):
        noise_detect(mk(np.zeros(10)), model, -1.0)
    with pytest.raises(ConfigError):
        NoiseModel(window_len=1, sigma_train=0.0, sigma_hist_spread=0.0)


def test_noise_std_overflow_is_a_numeric_error_not_a_warning():
    # [1e308, -1e308] has a sample std past the float range
    with pytest.raises(NumericError, match="noise band overflowed"):
        noise_train(mk([1e308, -1e308, 0.0, 0.0]), window_len=2)
    # finite window stds of about 1.3e154 whose spread overflows
    with pytest.raises(NumericError, match="noise band overflowed"):
        noise_train(mk([9e153, -9e153, 0.0, 0.0] * 5), window_len=2)
    model = NoiseModel(window_len=2, sigma_train=1.0, sigma_hist_spread=0.1)
    out = noise_detect(mk([1e308, -1e308, 0.0, math.sqrt(2)]), model, 1.0)
    assert out.flagged_samples.tolist() == [0, 1]


def test_noise_monotone_in_multiplier():
    rng = np.random.default_rng(31)
    for _ in range(100):
        train = mk(rng.normal(0, 1, size=60))
        test = mk(rng.normal(0, rng.uniform(0.2, 4.0), size=45))
        model = noise_train(train, window_len=5)
        m1, m2 = sorted(rng.uniform(0.0, 3.0, size=2))
        w1 = set(noise_detect(test, model, m1).flagged_samples.tolist())
        w2 = set(noise_detect(test, model, m2).flagged_samples.tolist())
        assert w2 <= w1


# ------------------------------------------------------- llse fit and detect

def test_llse_fit_exact_affine_and_identity():
    sj = mk([0.0, 1.0, 2.0], node="nj")
    si = mk([1.0, 3.0, 5.0], node="ni")
    beta0, beta1, t = llse_fit(si, sj, percentile_p=95.0)
    assert np.isclose(beta0, 1.0) and np.isclose(beta1, 2.0)
    assert t <= 1e-12

    b0, b1, t2 = llse_fit(si, si)
    assert np.isclose(b0, 0.0, atol=1e-12) and np.isclose(b1, 1.0)
    assert t2 <= 1e-12


def normal_equations_oracle(y, x):
    n = len(x)
    sx, sy = x.sum(), y.sum()
    sxx, sxy = (x * x).sum(), (x * y).sum()
    det = n * sxx - sx * sx
    beta1 = (n * sxy - sx * sy) / det
    beta0 = (sy - beta1 * sx) / n
    return beta0, beta1


def test_llse_fit_matches_oracle_with_percentile_bound():
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = 100
        x = rng.normal(0, rng.uniform(0.5, 3), size=n)
        y = rng.uniform(-2, 2) + rng.uniform(-3, 3) * x + rng.normal(0, 0.2, size=n)
        beta0, beta1, t = llse_fit(mk(y), mk(x), percentile_p=95.0)
        ob0, ob1 = normal_equations_oracle(y, x)
        assert abs(beta0 - ob0) <= 1e-9 * max(1.0, abs(ob0))
        assert abs(beta1 - ob1) <= 1e-9 * max(1.0, abs(ob1))
        errors = np.abs(beta0 + beta1 * x - y)
        assert np.count_nonzero(errors > t) <= n - math.ceil(0.95 * n)


def test_llse_fit_residual_orthogonality():
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = rng.normal(size=80)
        y = 1.5 - 2.0 * x + rng.normal(0, 0.5, size=80)
        beta0, beta1, _ = llse_fit(mk(y), mk(x))
        resid = y - (beta0 + beta1 * x)
        scale = np.abs(y).sum()
        assert abs(resid.sum()) <= 1e-9 * scale
        assert abs((resid * x).sum()) <= 1e-9 * scale * np.abs(x).max()


def test_llse_fit_signed_mode_threshold():
    rng = np.random.default_rng(43)
    x = rng.normal(size=50)
    y = 2.0 + x + rng.normal(0, 0.3, size=50)
    _, _, t_abs = llse_fit(mk(y), mk(x), percentile_p=80.0)
    b0, b1, t_signed = llse_fit(mk(y), mk(x), percentile_p=80.0, signed=True)
    signed_errors = np.sort(b0 + b1 * x - y)
    assert t_signed == signed_errors[math.ceil(0.8 * 50) - 1]
    assert t_signed <= t_abs


def test_llse_fit_errors():
    with pytest.raises(DataError, match="unusable neighbor"):
        llse_fit(mk([1.0, 2.0, 3.0]), mk([4.0, 4.0, 4.0]))
    with pytest.raises(DataError):
        llse_fit(mk([1.0, 2.0, 3.0]), mk([1.0, 2.0]))
    with pytest.raises(DataError):
        llse_fit(mk([1.0, 2.0]), mk([1.0, 2.0]))
    with pytest.raises(NumericError):
        llse_fit(mk([1.0, 2.0, 3.0]), mk([1e300, -1e300, 1e300]))


def test_nearest_rank_percentile_contract():
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        vals = rng.normal(size=n)
        p = float(rng.uniform(0.5, 99.5))
        t = nearest_rank_percentile(vals, p)
        ordered = np.sort(vals)
        assert t == ordered[math.ceil(p * n / 100) - 1]
    assert nearest_rank_percentile(np.array([3.0, 1.0, 2.0]), 99.9) == 3.0
    assert nearest_rank_percentile(np.array([3.0, 1.0, 2.0]), 0.5) == 1.0
    # exact rank boundaries: 95% of 20 is rank 19 exactly, not 20
    vals20 = np.arange(20.0)
    assert nearest_rank_percentile(vals20, 95.0) == vals20[18]


def fit_pair_model(target, neighbors, **kw):
    return fit_llse_model(target, neighbors, **kw)


def test_llse_detect_affine_neighbors_flag_nothing():
    rng = np.random.default_rng(53)
    x = rng.normal(size=60)
    target = mk(2.0 + 0.5 * x, node="t")
    nb1 = mk(x, node="a")
    nb2 = mk(-1.0 + 2.0 * x, node="b")
    model = fit_pair_model(target, [nb1, nb2], vote_q=2)
    out = llse_detect(target, [nb1, nb2], model)
    assert out.flagged_samples.tolist() == []
    assert out.source == "llse"


def test_llse_detect_unanimous_vote_flags_perturbed_sample():
    rng = np.random.default_rng(59)
    x = rng.normal(size=60)
    y = 1.0 + 2.0 * x + rng.normal(0, 0.01, size=60)
    target = mk(y, node="t")
    nb1 = mk(x, node="a")
    nb2 = mk(0.5 * x + 0.1, node="b")
    # p=99 on 60 samples sets each threshold at the max training error,
    # so the clean samples cannot vote and only the perturbation fires
    model = fit_pair_model(target, [nb1, nb2], percentile_p=99.0, vote_q=2)
    bad = y.copy()
    bad[33] += 50.0
    out = llse_detect(mk(bad, node="t"), [nb1, nb2], model)
    assert out.flagged_samples.tolist() == [33]


def test_llse_detect_vote_one_flags_superset_of_vote_two():
    rng = np.random.default_rng(61)
    x = rng.normal(size=200)
    y = x + rng.normal(0, 0.3, size=200)
    z = x + rng.normal(0, 0.3, size=200)
    target, nb1, nb2 = mk(y, node="t"), mk(x, node="a"), mk(z, node="b")
    m1 = fit_pair_model(target, [nb1, nb2], percentile_p=80.0, vote_q=1)
    m2 = fit_pair_model(target, [nb1, nb2], percentile_p=80.0, vote_q=2)
    f1 = set(llse_detect(target, [nb1, nb2], m1).flagged_samples.tolist())
    f2 = set(llse_detect(target, [nb1, nb2], m2).flagged_samples.tolist())
    assert f2 <= f1 and f1  # q=1 fires on 20 percent of training days


def test_llse_detect_alignment_and_missing_neighbor_errors():
    x = np.arange(12.0)
    target = mk(x, node="t")
    nb = mk(x * 2 + 1, node="a")
    model = fit_pair_model(target, [nb], vote_q=1)
    with pytest.raises(DataError):
        llse_detect(target, [mk(x * 2 + 1, node="a", start=600.0)], model)
    with pytest.raises(DataError):
        llse_detect(target, [mk(x, node="c")], model)
    with pytest.raises(ConfigError):
        fit_pair_model(target, [nb], vote_q=2)  # more votes than neighbors


def test_detectors_are_deterministic():
    rng = np.random.default_rng(67)
    vals = rng.normal(size=90)
    s = mk(vals)
    assert np.array_equal(short_detect(s, ShortParams(0.5)).flagged_samples,
                          short_detect(s, ShortParams(0.5)).flagged_samples)
    model = noise_train(s, window_len=9)
    assert np.array_equal(noise_detect(s, model, 1.0).flagged_samples,
                          noise_detect(s, model, 1.0).flagged_samples)


# ------------------------------------------------- results and serialization

def test_detection_result_normalization(tmp_path):
    assert [f.name for f in fields(DetectionResult)] == ["source", "flagged_samples"]
    r = DetectionResult("short", flagged_samples=(5, 1, 3, 5))
    assert r.flagged_samples.tolist() == [1, 3, 5]
    assert r.flagged_samples.dtype == np.int64
    with pytest.raises(ValueError):
        r.flagged_samples[0] = 7  # read-only
    w = DetectionResult("noise", np.array([6, 7, 8, 0, 1, 2]))
    assert w.sample_indices() is w.flagged_samples
    assert w.sample_indices().tolist() == [0, 1, 2, 6, 7, 8]
    write_detection_csv(tmp_path / "flags.csv", w.flagged_samples, w.source)
    assert (tmp_path / "flags.csv").read_text() == \
        "index,flag_source\n0,noise\n1,noise\n2,noise\n6,noise\n7,noise\n8,noise\n"
    assert DetectionResult("llse").flagged_samples.tolist() == []
    with pytest.raises(ConfigError):
        DetectionResult("spiky")


@st.composite
def flag_inputs(draw, lo=-2**63):
    """Flag indices as a caller may pass them: sorted or not, with or without
    duplicates, as a list, a 2-D array, a strided view or a buffer."""
    values = draw(st.lists(st.integers(lo, 2**63 - 1), max_size=40))
    drawn = np.array(values, dtype=np.int64)
    distinct = np.unique(drawn)
    forms = {
        "sorted distinct": lambda: distinct,
        "sorted": lambda: np.sort(drawn),
        "as drawn": lambda: drawn,
        "list": lambda: values,
        "tuple": lambda: tuple(values),
        "int32": lambda: (drawn % 2**31).astype(np.int32),
        "2-D": lambda: drawn[:len(values) // 2 * 2].reshape(-1, 2),
        "every other": lambda: distinct[::2],
        "reversed": lambda: distinct[::-1],
        "buffer": lambda: memoryview(distinct),
    }
    return forms[draw(st.sampled_from(sorted(forms)))]()


@settings(max_examples=400, deadline=None)
@given(flag_inputs())
def test_flag_fast_path_matches_np_unique(raw):
    expected = np.unique(np.asarray(raw, dtype=np.int64))
    owned = np.asarray(raw) if isinstance(raw, (np.ndarray, memoryview)) else None
    before = None if owned is None else owned.copy()
    flags = DetectionResult("short", raw).flagged_samples
    assert flags.dtype == np.int64 and flags.ndim == 1
    assert flags.tolist() == expected.tolist()
    assert not flags.flags.writeable
    if owned is not None:  # the caller's memory is neither frozen, changed nor shared
        assert owned.flags.writeable
        assert owned.shape == before.shape and np.array_equal(owned, before)
        assert not np.shares_memory(flags, owned)


@settings(max_examples=400, deadline=None)
@given(st.one_of(flag_inputs(), flag_inputs(lo=0)))
def test_spike_labels_take_the_flag_forms(raw):
    """Spike labels go through the flags' normaliser: distinct, non-negative
    input gives the flag array, and a negative or a repeated index raises."""
    drawn = np.asarray(raw, dtype=np.int64).ravel()
    owned = np.asarray(raw) if isinstance(raw, (np.ndarray, memoryview)) else None
    if (drawn < 0).any():
        with pytest.raises(DataError, match=">= 0"):
            GroundTruthLabels(short_indices=raw)
    elif np.unique(drawn).size != drawn.size:
        with pytest.raises(DataError, match="distinct"):
            GroundTruthLabels(short_indices=raw)
    else:
        labels = GroundTruthLabels(short_indices=raw).short_indices
        flags = DetectionResult("short", raw).flagged_samples
        assert labels.dtype == np.int64 and labels.ndim == 1
        assert labels.tolist() == flags.tolist()
        assert not labels.flags.writeable
        if owned is not None:
            assert owned.flags.writeable and not np.shares_memory(labels, owned)


# ----------------------------------- the former tuple-based result, as oracle

@dataclass(frozen=True)
class TupleDetectionResult:
    """DetectionResult as it was: sorted Python-int sample tuples, plus the
    noise rule's windows as (start, length) pairs expanded on every call."""

    source: str
    flagged_samples: tuple[int, ...] = ()
    flagged_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "flagged_samples",
                           tuple(sorted(int(i) for i in self.flagged_samples)))
        object.__setattr__(self, "flagged_windows",
                           tuple(sorted((int(a), int(b)) for a, b in self.flagged_windows)))

    def sample_indices(self) -> np.ndarray:
        idx = list(self.flagged_samples)
        for start, length in self.flagged_windows:
            idx.extend(range(start, start + length))
        return np.unique(np.array(idx, dtype=np.int64))


def tuple_short(s, delta):
    v = s.values.tolist()
    return TupleDetectionResult("short", [k for k in range(1, len(v))
                                          if abs(v[k] - v[k - 1]) > delta])


def tuple_noise(s, model, multiplier):
    """The former noise_detect result: one (start, length) pair per rejected window."""
    stds = window_stds(s, model.window_len)
    allow = multiplier * model.sigma_hist_spread
    flagged = np.nonzero((stds < model.sigma_train - allow) |
                         (stds > model.sigma_train + allow))[0]
    windows = tuple((int(i) * model.window_len, model.window_len) for i in flagged)
    return TupleDetectionResult("noise", (), windows)


def tuple_llse(target, neighbors, model):
    flagged = []
    for k, y in enumerate(target.values.tolist()):
        votes = 0
        for fit, nb in zip(model.neighbors, neighbors):
            err = (fit.beta0 + fit.beta1 * float(nb.values[k])) - y
            votes += (err if model.signed else abs(err)) > fit.threshold
        if votes >= model.vote_q:
            flagged.append(k)
    return TupleDetectionResult("llse", flagged)


def quarters(lo, hi):
    """Multiples of 0.25 in [lo, hi]: exact in binary, and equal jumps and band
    edges come up often."""
    return st.integers(4 * lo, 4 * hi).map(lambda k: k / 4)


@st.composite
def detector_runs(draw):
    """(series, result, former result, events, labels, kind) of one detector run.

    `mode` sets the threshold so that no flags and every flaggable sample
    flagged come up as often as drawn thresholds; noise series often end in
    a partial window.
    """
    detector = draw(st.sampled_from(["short", "noise", "llse"]))
    mode = draw(st.sampled_from(["none", "all", "drawn"]))
    n = draw(st.integers(2, 40))
    values = draw(st.lists(quarters(-10, 10), min_size=n, max_size=n))
    if detector == "short":
        if mode == "all":
            values = np.cumsum(np.abs(values) + 1.0)
        delta = {"none": 1e9, "all": 0.5}.get(mode) or draw(quarters(1, 10))
        s = mk(values)
        new, old = short_detect(s, ShortParams(delta)), tuple_short(s, delta)
    elif detector == "noise":
        w = draw(st.integers(2, min(6, n)))
        if mode == "none":
            model, multiplier = NoiseModel(w, 0.0, 1.0), 1e9
        elif mode == "all":
            model, multiplier = NoiseModel(w, 1e6, 0.0), 0.0
        else:
            model = NoiseModel(w, draw(quarters(0, 10)), draw(quarters(0, 5)))
            multiplier = draw(quarters(0, 3))
        s = mk(values)
        new, old = noise_detect(s, model, multiplier), tuple_noise(s, model, multiplier)
    else:
        neighbors = [mk(draw(st.lists(quarters(-10, 10), min_size=n, max_size=n)),
                        node=f"nb{j}") for j in range(draw(st.integers(1, 3)))]
        fits = tuple(NeighborFit(nb.node_id, draw(quarters(-2, 2)), draw(quarters(-2, 2)),
                                 {"none": 1e9, "all": -1.0}.get(mode) or draw(quarters(-5, 10)))
                     for nb in neighbors)
        model = LlseModel("t", fits, 95.0, draw(st.integers(1, len(fits))),
                          mode == "drawn" and draw(st.booleans()))
        s = mk(values, node="t")
        new, old = llse_detect(s, neighbors, model), tuple_llse(s, neighbors, model)

    events, cursor = [], 0.0
    for _ in range(draw(st.integers(0, 3))):
        start = cursor + draw(st.integers(0, 10)) * 1200.0 + draw(st.sampled_from([0.0, 300.0]))
        cursor = start + draw(st.integers(1, 15)) * 1200.0
        events.append(EventWindow(start, cursor))
    kind = draw(st.sampled_from([None, "short", "noise"]))
    truth = None
    if kind == "short":
        truth = GroundTruthLabels(short_indices=tuple(draw(st.sets(st.integers(0, n - 1)))))
    elif kind == "noise":
        bursts, at = [], draw(st.integers(0, n - 1))
        while at < n:
            length = draw(st.integers(1, n - at))
            bursts.append((at, length))
            at += length + draw(st.integers(1, n))
        truth = GroundTruthLabels(noise_windows=tuple(bursts))
    return s, new, old, events, truth, kind


@settings(max_examples=300, deadline=None)
@given(detector_runs())
def test_flag_array_matches_the_tuple_result(run):
    s, new, old, events, truth, kind = run
    assert new.flagged_samples.dtype == np.int64
    assert new.flagged_samples.tolist() == old.sample_indices().tolist()
    assert new.source == old.source
    params = {"detector": new.source}
    assert report_to_dict(assemble_report(s, new, events, truth, kind, params)) == \
        report_to_dict(assemble_report(s, old, events, truth, kind, params))


def test_model_serialization_round_trips(tmp_path):
    short = ShortParams(7.5)
    noise = NoiseModel(window_len=18, sigma_train=1.25, sigma_hist_spread=0.5)
    llse = LlseModel("t", (NeighborFit("a", 0.5, 2.0, 0.1),
                           NeighborFit("b", -1.0, 1.0, 0.2)),
                     percentile_p=95.0, vote_q=2)
    for model in (short, noise, llse):
        doc = model_to_dict(model)
        assert doc["version"] == 1
        again = model_from_dict(doc)
        assert again == model
        p = tmp_path / f"{doc['kind']}.json"
        save_model(p, model, config_echo={"seed": 3})
        assert load_model(p) == model


def test_model_loading_rejects_bad_documents(tmp_path):
    with pytest.raises(DataError):
        model_from_dict({"version": 99, "kind": "short", "delta": 1.0})
    with pytest.raises(DataError):
        model_from_dict({"version": 1, "kind": "mystery"})
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    with pytest.raises(DataError):
        load_model(p)


@pytest.mark.parametrize("change", [
    {"window_len": 1e400},
    {"window_len": 2.9},
    {"window_len": True},
    {"window_len": 2**63},
    {"sigma_train": "0.01"},
    {"sigma_train": float("nan")},
    {"extra": 1},
])
def test_model_numbers_follow_the_json_rule(change):
    doc = model_to_dict(NoiseModel(window_len=18, sigma_train=1.25, sigma_hist_spread=0.5))
    with pytest.raises(DataError):
        model_from_dict(doc | change)


def test_model_documents_hold_only_their_kind_keys():
    llse = model_to_dict(LlseModel("t", (NeighborFit("a", 0.5, 2.0, 0.1),), 95.0, 1))
    assert model_from_dict(llse | {"config": {"seed": 1}}).target == "t"
    for bad in ({"delta": 0.5}, {"neighbors": [{"node_id": "a", "beta0": 0.5, "beta1": 2.0}]},
                {"neighbors": {"node_id": "a"}}, {"vote_q": 1.0}):
        with pytest.raises(DataError):
            model_from_dict(llse | bad)
    with pytest.raises(DataError, match="short model delta"):
        model_from_dict({"version": 1, "kind": "short", "delta": "0.5"})
    with pytest.raises(DataError, match=r"missing keys \['delta'\]"):
        model_from_dict({"version": 1, "kind": "short"})
