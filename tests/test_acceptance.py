"""Release acceptance gate: eight criteria, one test per criterion.

Each test prints one [PASS]/[FAIL] line with its runtime and asserts a
runtime budget. Scenario seeds are fixed; the expected relations are
inequalities and exact contracts, not point values.
"""

import json
import math
import time

import numpy as np

import faultlab.cli as cli
from faultlab.detect import (DetectionResult, ShortParams, fit_llse_model, llse_detect,
                             llse_fit, noise_detect, noise_train, short_detect)
from faultlab.inject import InjectionPlan, inject_noise, inject_short, save_labels
from faultlab.io import write_series_csv
from faultlab.metrics import assemble_report
from faultlab.pipeline import run_sweep_points
from faultlab.preprocess import smooth_pairs
from faultlab.series import EventWindow, Modality, Series
from faultlab.synth import (BoxTempProfile, DeploymentSpec, SoilMoistureProfile,
                            gen_deployment, make_event_schedule)

_T0 = time.perf_counter()


def _run(capsys, label: str, budget_s: float, body) -> None:
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"\n[FAIL] {label}")
        raise
    took = time.perf_counter() - t0
    assert took < budget_s, f"{label}: {took:.2f}s exceeds the {budget_s}s budget"
    with capsys.disabled():
        print(f"\n[PASS] {label} ({took:.2f}s)")


def _mk(values, node="n", modality=Modality.BOX_TEMP):
    return Series(node, modality, 0.0, 600.0, np.asarray(values, dtype=float))


def test_criterion_1_monotonicity(capsys):
    def body():
        rng = np.random.default_rng(20250825)
        for _ in range(600):
            n = int(rng.integers(30, 150))
            vals = np.cumsum(rng.normal(0.0, 1.0, n))
            vals = vals + (rng.random(n) < 0.05) * rng.normal(0.0, 6.0, n)
            s = _mk(vals)
            deltas = np.sort(rng.uniform(0.05, 6.0, 3))
            sets = [set(short_detect(s, ShortParams(float(d))).sample_indices().tolist())
                    for d in deltas]
            assert sets[2] <= sets[1] <= sets[0]

        window = 6
        for _ in range(600):
            sigma = float(rng.uniform(0.2, 2.0))
            model = noise_train(_mk(rng.normal(0.0, sigma, 10 * window)), window)
            vals = rng.normal(0.0, sigma, 8 * window)
            vals[2 * window:3 * window] *= float(rng.uniform(1.0, 6.0))
            s = _mk(vals)
            mults = np.sort(rng.uniform(0.3, 5.0, 3))
            sets = [set(noise_detect(s, model, float(m)).sample_indices().tolist())
                    for m in mults]
            assert sets[2] <= sets[1] <= sets[0]

    _run(capsys, "criterion 1: flag sets shrink as delta/multiplier grow", 5.0, body)


def test_criterion_2_llse_contract(capsys):
    def body():
        rng = np.random.default_rng(424242)
        for _ in range(200):
            n = int(rng.integers(20, 250))
            x = rng.uniform(-40.0, 40.0, n)
            b0 = float(rng.uniform(-10.0, 10.0))
            b1 = float(rng.uniform(-5.0, 5.0))
            y = b0 + b1 * x + rng.normal(0.0, float(rng.uniform(0.01, 2.0)), n)
            beta0, beta1, thresh = llse_fit(_mk(y), _mk(x))

            sx, sy = math.fsum(x), math.fsum(y)
            sxx = math.fsum(v * v for v in x)
            sxy = math.fsum(u * v for u, v in zip(x, y))
            det = n * sxx - sx * sx
            o1 = (n * sxy - sx * sy) / det
            o0 = (sy - o1 * sx) / n
            assert abs(beta0 - o0) <= 1e-9 * max(1.0, abs(o0))
            assert abs(beta1 - o1) <= 1e-9 * max(1.0, abs(o1))

            err = np.abs(beta0 + beta1 * x - y)
            assert int((err > thresh).sum()) <= n - math.ceil(0.95 * n)

    _run(capsys, "criterion 2: least-squares fit matches a brute-force oracle", 5.0, body)


def test_criterion_3_injection_exactness(capsys, tmp_path):
    def body():
        rng = np.random.default_rng(7)
        s = _mk(np.cumsum(rng.normal(0.0, 1.0, 1000)) + 50.0)
        big = _mk(rng.normal(25.0, 0.5, 10000))

        f_short, l_short = inject_short(s, InjectionPlan(seed=4242))
        assert len(l_short.short_indices) == round(0.015 * 1000) == 15

        f_noise, l_noise = inject_noise(big, InjectionPlan(seed=4242), base_sigma=0.5)
        total = sum(ln for _, ln in l_noise.noise_windows)
        budget = round(0.065 * 10000)
        longest = max(InjectionPlan(seed=4242).noise_burst_lengths)
        assert budget - longest <= total <= budget
        spans = sorted((st, st + ln) for st, ln in l_noise.noise_windows)
        for (_, a_end), (b_start, _) in zip(spans, spans[1:]):
            assert a_end <= b_start

        f_short2, l_short2 = inject_short(s, InjectionPlan(seed=4242))
        f_noise2, l_noise2 = inject_noise(big, InjectionPlan(seed=4242), base_sigma=0.5)
        for name, runs in (("short", ((f_short, l_short), (f_short2, l_short2))),
                           ("noise", ((f_noise, l_noise), (f_noise2, l_noise2)))):
            paths = []
            for tag, (faulted, labels) in zip("ab", runs):
                csv_path = tmp_path / f"{name}_{tag}.csv"
                json_path = tmp_path / f"{name}_{tag}.json"
                write_series_csv(csv_path, [faulted])
                save_labels(json_path, labels, InjectionPlan(seed=4242))
                paths.append((csv_path, json_path))
            assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
            assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    _run(capsys, "criterion 3: injected fault counts and byte determinism", 2.0, body)


def test_criterion_4_duration_metric_oracle(capsys):
    def body():
        rng = np.random.default_rng(55)
        dt = 600.0
        count = 0
        while count < 500:
            n = int(rng.integers(40, 240))
            s = _mk(np.zeros(n))
            cursor, events = 0.0, []
            for _ in range(int(rng.integers(1, 5))):
                start = cursor + float(rng.integers(0, 15)) * dt
                end = start + float(rng.integers(1, 25)) * dt
                events.append(EventWindow(start, end))
                cursor = end
            windows, cur = [], 0
            while cur < n - 2 and len(windows) < 6:
                st = cur + int(rng.integers(0, 25))
                ln = int(rng.integers(1, 18))
                if st + ln > n:
                    break
                windows.append((st, ln))
                cur = st + ln

            flagged = set()
            for st, ln in windows:
                flagged.update(range(st, st + ln))
            hit = total = 0
            for ev in events:
                for k in range(n):
                    if ev.start <= k * dt < ev.end:
                        total += 1
                        hit += k in flagged
            if total == 0:
                continue
            result = DetectionResult("noise", sorted(flagged))
            assert assemble_report(s, result, events).mu == hit / total
            count += 1

    _run(capsys, "criterion 4: duration metric equals brute-force overlap", 2.0, body)


SYNTH_DEPLOYMENT = {
    "train_days": 30,
    "test_days": 90,
    "n_events": 21,
    "interval_s": 600,
    "nodes": [{"id": "node1"}],
}


def test_criterion_5_spike_rule_modality_contrast(capsys):
    def body():
        seed = 20250825
        soil_cfg = {
            "synth": SYNTH_DEPLOYMENT,
            "detector": "short",
            "grid": [0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
            "inject": {"kind": "short", "short_intensity": 0.2},
        }
        box_cfg = {
            "synth": SYNTH_DEPLOYMENT,
            "detector": "short",
            "grid": [10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60],
            "inject": {"kind": "short", "short_intensity": 1.0},
        }
        soil = run_sweep_points(soil_cfg, seed, Modality.SOIL_MOISTURE).points
        box = run_sweep_points(box_cfg, seed, Modality.BOX_TEMP).points

        soil_mu = [pt.report.mu for pt in soil]
        soil_fn = [pt.report.false_negative_ratio for pt in soil]
        soil_fhh = [pt.report.mu_first_half_hour for pt in soil]
        box_mu = [pt.report.mu for pt in box]
        box_fn = [pt.report.false_negative_ratio for pt in box]

        assert soil_mu[0] >= 0.40

        # compare mu where the two sweeps sit at the same miss rate
        i = min(range(len(soil_fn)), key=lambda k: soil_fn[k])
        j = min(range(len(box_fn)), key=lambda k: abs(box_fn[k] - soil_fn[i]))
        assert soil_mu[i] >= 5.0 * box_mu[j]

        for mu, fhh in zip(soil_mu, soil_fhh):
            assert fhh >= mu

    _run(capsys, "criterion 5: spike rule misclassifies soil events, not box temp",
         30.0, body)


def test_criterion_6_noise_rule_tradeoff(capsys):
    def body():
        seed = 20250825
        synth = dict(SYNTH_DEPLOYMENT, train_events=5, nodes=[{"id": "node1"}])
        grid = [1.0, 1.5, 2.0, 2.5, 3.0]
        mus = np.zeros(len(grid))
        fns = np.zeros(len(grid))
        multipliers = (0.5, 1.5, 3.0)
        for m in multipliers:
            cfg = {
                "synth": synth,
                "detector": "noise",
                "grid": grid,
                "inject": {"kind": "noise", "noise_multiplier": m,
                           "noise_burst_lengths": [36, 54]},
            }
            res = run_sweep_points(cfg, seed, Modality.BOX_TEMP)
            for k, pt in enumerate(res.points):
                mus[k] += pt.report.mu / len(multipliers)
                fns[k] += pt.report.false_negative_ratio / len(multipliers)

        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert fns[-1] >= 2.0 * fns[0]

    _run(capsys, "criterion 6: noise rule trades misclassification for misses",
         30.0, body)


def test_criterion_7_cross_estimation_contrast(capsys):
    def body():
        nodes = ("n1", "n2", "n3")
        scales = (1.0, 1.0, 0.3)
        lags = (0.0, 0.0, 0.0)
        train_spec = DeploymentSpec(node_ids=nodes, response_scales=scales,
                                    lags_s=lags, schedule=(), seed=917,
                                    days=30, interval_s=600.0)
        schedule = make_event_schedule(90, 21, [20250825, 3])
        test_spec = DeploymentSpec(node_ids=nodes, response_scales=scales,
                                   lags_s=lags, schedule=schedule, seed=20250825,
                                   days=90, interval_s=600.0)
        box_profile, soil_profile = BoxTempProfile(), SoilMoistureProfile()
        train_series = [smooth_pairs(s) for s in
                        gen_deployment(train_spec, box_profile, soil_profile)[0]]
        test_series = [smooth_pairs(s) for s in
                       gen_deployment(test_spec, box_profile, soil_profile)[0]]
        events = [ev.window for ev in schedule]

        def find(series_list, node, modality):
            return next(s for s in series_list
                        if s.node_id == node and s.modality == modality)

        pooled = {}
        for modality in (Modality.SOIL_MOISTURE, Modality.BOX_TEMP):
            hit = total = 0
            for target in nodes:
                others = [nd for nd in nodes if nd != target]
                model = fit_llse_model(
                    find(train_series, target, modality),
                    [find(train_series, nd, modality) for nd in others])
                result = llse_detect(
                    find(test_series, target, modality),
                    {nd: find(test_series, nd, modality) for nd in others},
                    model)
                report = assemble_report(find(test_series, target, modality),
                                         result, events)
                hit += sum(st.misclassified for st in report.per_event)
                total += sum(st.samples for st in report.per_event)
            pooled[modality] = hit / total

        soil_mu = pooled[Modality.SOIL_MOISTURE]
        box_mu = pooled[Modality.BOX_TEMP]
        assert soil_mu > 0.0
        assert soil_mu >= 10.0 * box_mu

    _run(capsys, "criterion 7: cross-node estimation flags soil events 10x box temp",
         30.0, body)


def test_criterion_8_sweep_determinism(capsys, tmp_path):
    def body():
        cfg_doc = {
            "seed": 99,
            "synth": {"train_days": 3, "test_days": 12, "n_events": 5,
                      "train_events": 1, "interval_s": 600},
            "detector": "noise",
            "grid": [1.0, 2.0, 3.0],
            "inject": {"kind": "noise", "noise_multiplier": 2.0,
                       "noise_burst_lengths": [36, 54]},
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(cfg_doc))
        dirs = (tmp_path / "a", tmp_path / "b")
        for d in dirs:
            assert cli.main(["sweep", "--config", str(cfg), "--out", str(d)]) == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert "sweep.csv" in names and "report_000.json" in names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        assert time.perf_counter() - _T0 < 60.0, "acceptance suite exceeded 60s"

    _run(capsys, "criterion 8: repeated sweep runs are byte-identical", 60.0, body)
