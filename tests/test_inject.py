"""Seeded fault injection: exact counts, determinism, distributional checks."""

import numpy as np
import pytest

from faultlab import (
    ConfigError,
    DataError,
    GroundTruthLabels,
    InjectionPlan,
    Modality,
    Series,
    ShortParams,
    inject_noise,
    inject_short,
    merge_labels,
    short_detect,
)
from faultlab.inject import labels_from_dict, labels_to_dict, load_labels, save_labels


def mk(values, interval=1200.0, modality=Modality.BOX_TEMP):
    return Series("n1", modality, 0.0, interval, np.asarray(values, dtype=float))


def test_plan_validation():
    InjectionPlan(seed=1)
    with pytest.raises(ConfigError):
        InjectionPlan(seed=-1)
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, short_fraction=0.0)
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, short_fraction=1.0)
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, short_intensity=0.0)
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, noise_burst_lengths=(1, 10))
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, noise_burst_lengths=())
    with pytest.raises(ConfigError):
        InjectionPlan(seed=0, noise_multiplier=-0.5)


def test_short_spike_formula():
    plan = InjectionPlan(seed=4, short_intensity=0.5, short_fraction=0.5)
    out, labels = inject_short(mk([10.0, 10.0]), plan)
    k = labels.short_indices[0]
    assert out.values[k] == 15.0  # v * (1 + f)
    moist, lab2 = inject_short(mk([0.2, 0.2], modality=Modality.SOIL_MOISTURE), plan)
    assert np.isclose(moist.values[lab2.short_indices[0]], 0.3)


def test_short_count_exact_and_deterministic():
    rng = np.random.default_rng(71)
    s = mk(rng.normal(25, 3, size=1000))
    plan = InjectionPlan(seed=90210, short_intensity=1.0, short_fraction=0.015)
    out1, lab1 = inject_short(s, plan)
    out2, lab2 = inject_short(s, plan)
    assert lab1.short_indices.dtype == np.int64 and lab1.short_indices.size == 15
    assert np.array_equal(lab1.short_indices, lab2.short_indices)
    assert lab1.noise_windows == lab2.noise_windows == ()
    assert np.array_equal(out1.values, out2.values)
    # a different seed moves the sites
    _, lab3 = inject_short(s, InjectionPlan(seed=90211, short_intensity=1.0))
    assert not np.array_equal(lab3.short_indices, lab1.short_indices)


def test_short_rounding_of_fault_count():
    s = mk(np.ones(100))
    # round(1.5) == 2 under round-half-to-even
    _, lab = inject_short(s, InjectionPlan(seed=5, short_fraction=0.015))
    assert len(lab.short_indices) == round(0.015 * 100) == 2


def test_short_non_contamination():
    rng = np.random.default_rng(73)
    s = mk(rng.normal(size=400))
    out, lab = inject_short(s, InjectionPlan(seed=8, short_intensity=2.0))
    untouched = np.setdiff1d(np.arange(400), np.array(lab.short_indices))
    assert np.array_equal(out.values[untouched], s.values[untouched])
    changed = np.array(lab.short_indices)
    assert np.all(out.values[changed] != s.values[changed])


def test_short_degenerate_plan_errors():
    s = mk(np.ones(10))
    with pytest.raises(ConfigError, match="degenerate"):
        inject_short(s, InjectionPlan(seed=1, short_fraction=0.015))


def test_short_closure_with_detector():
    # constant series: an injected spike always jumps by f*|v|, so any
    # delta < f*|v| catches it (when the predecessor is unspiked)
    v, f = 10.0, 0.5
    s = mk(np.full(600, v))
    out, lab = inject_short(s, InjectionPlan(seed=21, short_intensity=f, short_fraction=0.015))
    flagged = set(short_detect(out, ShortParams(0.9 * f * v)).flagged_samples)
    sites = set(lab.short_indices)
    for k in sites:
        if k >= 1 and (k - 1) not in sites:
            assert k in flagged


def test_noise_zero_multiplier_keeps_values():
    rng = np.random.default_rng(79)
    s = mk(rng.normal(size=4000))
    plan = InjectionPlan(seed=3, noise_multiplier=0.0, noise_burst_lengths=(144, 360))
    out, labels = inject_noise(s, plan, base_sigma=1.0)
    assert np.array_equal(out.values, s.values)
    assert labels.noise_windows  # faults are labeled even though values kept


def test_noise_budget_bound_and_disjointness():
    rng = np.random.default_rng(83)
    s = mk(rng.normal(size=10000))
    plan = InjectionPlan(seed=12, noise_multiplier=1.5, noise_burst_lengths=(144, 360))
    out, labels = inject_noise(s, plan, base_sigma=0.5)
    total = sum(ln for _, ln in labels.noise_windows)
    assert 650 - 360 + 1 <= total <= 650
    # pairwise disjoint is enforced by GroundTruthLabels; re-check explicitly
    ends = [(st, st + ln) for st, ln in labels.noise_windows]
    for (a0, a1), (b0, b1) in zip(ends, ends[1:]):
        assert a1 <= b0


def burst_samples(labels):
    """Every sample index inside a noise burst of `labels`, in order."""
    return np.array([i for start, n in labels.noise_windows for i in range(start, start + n)],
                    dtype=np.int64)


def test_noise_determinism_and_non_contamination():
    rng = np.random.default_rng(89)
    s = mk(rng.normal(size=5000))
    plan = InjectionPlan(seed=77, noise_multiplier=3.0, noise_burst_lengths=(50, 100))
    out1, lab1 = inject_noise(s, plan, base_sigma=0.4)
    out2, lab2 = inject_noise(s, plan, base_sigma=0.4)
    assert lab1.noise_windows == lab2.noise_windows
    assert lab1.short_indices.size == lab2.short_indices.size == 0
    assert np.array_equal(out1.values, out2.values)
    inside = burst_samples(lab1)
    outside = np.setdiff1d(np.arange(5000), inside)
    assert np.array_equal(out1.values[outside], s.values[outside])


def test_noise_burst_std_matches_model():
    # std inside a burst should be ~ sqrt(sigma_orig^2 + (m*base)^2)
    sigma_orig, base, m = 1.0, 0.5, 3.0
    expect = np.sqrt(sigma_orig**2 + (m * base) ** 2)
    ratios = []
    for seed in range(120):
        rng = np.random.default_rng(1000 + seed)
        s = mk(rng.normal(0, sigma_orig, size=3000))
        plan = InjectionPlan(seed=seed, noise_multiplier=m, noise_burst_lengths=(96,))
        out, labels = inject_noise(s, plan, base_sigma=base)
        inside = burst_samples(labels)
        ratios.append(np.std(out.values[inside], ddof=1) / expect)
    assert abs(np.mean(ratios) - 1.0) < 0.10


def test_noise_preconditions():
    plan = InjectionPlan(seed=1, noise_burst_lengths=(144, 360))
    with pytest.raises(DataError, match="too short"):
        inject_noise(mk(np.zeros(300)), plan, base_sigma=1.0)
    # budget round(0.065*2400)=156 < 360 still fits the 144-sample burst,
    # but a min length above the budget cannot
    with pytest.raises(DataError, match="budget"):
        inject_noise(mk(np.zeros(2400)), InjectionPlan(seed=1, noise_burst_lengths=(200,)),
                     base_sigma=1.0)
    with pytest.raises(ConfigError):
        inject_noise(mk(np.zeros(2400)), plan, base_sigma=-1.0)


def test_chained_injection_keeps_kinds_separate():
    rng = np.random.default_rng(97)
    s = mk(rng.normal(size=3000))
    plan = InjectionPlan(seed=55, short_intensity=1.0, noise_multiplier=2.0,
                         noise_burst_lengths=(60, 90))
    noised, noise_lab = inject_noise(s, plan, base_sigma=0.3)
    final, short_lab = inject_short(noised, plan)
    both = merge_labels(noise_lab, short_lab)
    assert np.array_equal(both.short_indices, short_lab.short_indices)
    assert not both.short_indices.flags.writeable
    assert both.noise_windows == noise_lab.noise_windows
    touched = set(short_lab.short_indices.tolist()) | set(burst_samples(noise_lab).tolist())
    untouched = np.setdiff1d(np.arange(3000), np.array(sorted(touched)))
    assert np.array_equal(final.values[untouched], s.values[untouched])


def test_labels_serialization_round_trip(tmp_path):
    plan = InjectionPlan(seed=9, short_intensity=0.5, noise_multiplier=1.5)
    labels = GroundTruthLabels(short_indices=(8, 3), noise_windows=((20, 5),))
    doc = labels_to_dict(labels, plan)
    assert doc["short"] == [3, 8] and all(type(i) is int for i in doc["short"])
    assert doc["noise"] == [{"start": 20, "len": 5}]
    assert doc["seed"] == 9

    p = tmp_path / "labels.json"
    save_labels(p, labels, plan)
    for again in (labels_from_dict(doc), load_labels(p)):
        assert np.array_equal(again.short_indices, labels.short_indices)
        assert again.short_indices.dtype == np.int64
        assert again.noise_windows == labels.noise_windows


@pytest.mark.parametrize("doc", [
    {"short": "12"},
    {"short": [1.7]},
    {"short": [True]},
    {"short": [1e400]},
    {"short": [2**63]},
    {"shrot": [3]},
    {"noise": [{"start": 1, "len": 4, "end": 5}]},
    {"noise": [{"start": 1}]},
    {"noise": {"start": 1, "len": 4}},
    [3],
])
def test_labels_take_json_integers_and_known_keys_only(doc):
    with pytest.raises(DataError):
        labels_from_dict(doc)
