"""Brute-force oracles for the benchmark's correctness checks.

Nothing here imports faultlab. Expected values are recomputed from the
files a pass wrote (or from arrays handed over by the caller) with numpy
and the standard library, in the plainest form the rule allows: event
membership from a `start <= t < end` mask, short flags from `|diff| >
delta`, noise flags from the ddof-1 std of each tumbling window, llse
coefficients from `np.linalg.lstsq`. Every check raises `Mismatch`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

FIRST_HALF_HOUR_S = 1800.0


class Mismatch(Exception):
    """An output of the program disagrees with its oracle."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


# -- reading the program's files -------------------------------------------

def read_series(path: Path) -> dict[tuple[str, str], tuple[float, float, np.ndarray]]:
    """{(node, modality): (t0, dt, values)} of a gap-free series CSV."""
    cols: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        expect(next(rows) == ["timestamp", "node_id", "modality", "value"],
               f"{path}: unexpected header")
        for ts, node, mod, val in rows:
            t, v = cols.setdefault((node, mod), ([], []))
            t.append(float(ts))
            v.append(float(val))
    out = {}
    for key, (t, v) in cols.items():
        times = np.array(t)
        dt = times[1] - times[0]
        expect(bool(np.all(np.diff(times) == dt)), f"{path}: {key} is not evenly spaced")
        out[key] = (times[0], dt, np.array(v))
    return out


def read_flags(path: Path) -> tuple[str, np.ndarray]:
    """(source, sorted indices) of a single-source flags CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["index", "flag_source"], f"{path}: unexpected header")
    sources = {src for _, src in rows[1:]}
    expect(len(sources) <= 1, f"{path}: several flag sources {sorted(sources)}")
    idx = np.array([int(i) for i, _ in rows[1:]], dtype=np.int64)
    expect(bool(np.all(np.diff(idx) > 0)), f"{path}: indices not sorted and unique")
    return (sources.pop() if sources else ""), idx


def read_events(path: Path) -> list[tuple[float, float]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["start", "end"], f"{path}: unexpected header")
    return [(float(a), float(b)) for a, b in rows[1:]]


def read_labels(path: Path) -> dict:
    doc = json.loads(Path(path).read_text())
    return {"short": [int(i) for i in doc["short"]],
            "noise": [(int(w["start"]), int(w["len"])) for w in doc["noise"]]}


# -- detectors --------------------------------------------------------------

def sample_times(t0: float, dt: float, n: int) -> np.ndarray:
    return t0 + np.arange(n) * dt


def short_flags(v: np.ndarray, delta: float) -> np.ndarray:
    m = np.zeros(v.size, dtype=bool)
    m[1:] = np.abs(v[1:] - v[:-1]) > delta
    return m


def window_stds(v: np.ndarray, w: int) -> np.ndarray:
    return np.array([np.std(v[i:i + w], ddof=1)
                     for i in range(0, v.size - w + 1, w)])


def noise_band(train: np.ndarray, w: int) -> tuple[float, float]:
    stds = window_stds(train, w)
    return float(stds.mean()), float(stds.std(ddof=1))


def noise_flags(v: np.ndarray, w: int, sigma: float, spread: float,
                multiplier: float) -> np.ndarray:
    stds = window_stds(v, w)
    allow = multiplier * spread
    m = np.zeros(v.size, dtype=bool)
    for i, sd in enumerate(stds):
        if sd < sigma - allow or sd > sigma + allow:
            m[i * w:(i + 1) * w] = True
    return m


def llse_expected(model: dict, series: dict[str, np.ndarray]) -> np.ndarray:
    """Check the model's coefficients with lstsq; return the vote mask."""
    y = series[model["target"]]
    votes = np.zeros(y.size, dtype=np.int64)
    for nb in model["neighbors"]:
        x = series[nb["node_id"]]
        design = np.column_stack([np.ones_like(x), x])
        (b0, b1), *_ = np.linalg.lstsq(design, y, rcond=None)
        for got, want, what in ((nb["beta0"], b0, "beta0"), (nb["beta1"], b1, "beta1")):
            expect(abs(got - want) <= 1e-9 * max(abs(want), 1e-300),
                   f"llse {nb['node_id']} {what} {got!r} != lstsq {want!r}")
        err = np.abs((nb["beta0"] + nb["beta1"] * x) - y)
        votes += err > nb["threshold"]
    return votes >= model["vote_q"]


# -- scoring ----------------------------------------------------------------

def score(times: np.ndarray, flagged: np.ndarray, events, labels: dict | None,
          kind: str | None) -> dict:
    """mu, mu_first_half_hour, fn ratio and per-event counts by brute force."""
    in_event = np.zeros(times.size, dtype=bool)
    opening = np.zeros(times.size, dtype=bool)
    per_event = []
    for start, end in events:
        inside = (times >= start) & (times < end)
        head = inside & (times < min(end, start + FIRST_HALF_HOUR_S))
        in_event |= inside
        opening |= head
        per_event.append((int(inside.sum()), int((inside & flagged).sum()),
                          int(head.sum()), int((head & flagged).sum())))
    total, op_total = int(in_event.sum()), int(opening.sum())
    out = {
        "mu": int((in_event & flagged).sum()) / total if total else None,
        "mu_first_half_hour": (int((opening & flagged).sum()) / op_total
                               if op_total else None),
        "false_negative_ratio": None,
        "per_event": per_event,
    }
    if kind == "short" and labels and labels["short"]:
        missed = sum(1 for i in labels["short"] if not flagged[i])
        out["false_negative_ratio"] = missed / len(labels["short"])
    elif kind == "noise" and labels and labels["noise"]:
        missed = sum(1 for s, n in labels["noise"] if not flagged[s:s + n].any())
        out["false_negative_ratio"] = missed / len(labels["noise"])
        burst = [i for s, n in labels["noise"] for i in range(s, s + n)]
        out["noise_fn_per_sample"] = sum(1 for i in burst if not flagged[i]) / len(burst)
    return out


def sweep_expected(detector: str, grid, test: np.ndarray, times: np.ndarray,
                   train: np.ndarray, window_len: int, events,
                   labels: dict | None) -> list[tuple]:
    """Expected sweep.csv rows: (param, mu, mu_first_half_hour, fn_ratio)."""
    if detector == "noise":
        sigma, spread = noise_band(train, window_len)
    rows = []
    for param in grid:
        if detector == "short":
            flagged = short_flags(test, param)
        else:
            flagged = noise_flags(test, window_len, sigma, spread, param)
        sc = score(times, flagged, events, labels, detector if labels else None)
        rows.append((float(param), sc["mu"], sc["mu_first_half_hour"],
                     sc["false_negative_ratio"]))
    return rows


def check_sweep_csv(path: Path, expected: list[tuple]) -> None:
    """The sweep rows equal their oracle exactly and move the right way."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    expect(rows[0] == ["param", "mu", "mu_first_half_hour", "fn_ratio"],
           f"{path}: unexpected header")
    got = [tuple(float(c) if c else None for c in row) for row in rows[1:]]
    expect(len(got) == len(expected), f"{path}: {len(got)} rows, want {len(expected)}")
    for g, e in zip(got, expected):
        expect(g == e, f"{path}: row {g} != brute force {e}")
    check_monotone(got, path)


def check_monotone(rows: list[tuple], where) -> None:
    """Along an ascending grid mu must not rise and the miss ratio not fall."""
    for a, b in zip(rows, rows[1:]):
        expect(a[0] < b[0], f"{where}: grid not ascending")
        if a[1] is not None and b[1] is not None:
            expect(b[1] <= a[1], f"{where}: mu rises from {a} to {b}")
        if a[3] is not None and b[3] is not None:
            expect(b[3] >= a[3], f"{where}: fn_ratio falls from {a} to {b}")


def check_report(path: Path, expected: dict) -> None:
    doc = json.loads(Path(path).read_text())
    for key in ("mu", "mu_first_half_hour", "false_negative_ratio", "noise_fn_per_sample"):
        expect(doc.get(key) == expected.get(key),
               f"{path}: {key} {doc.get(key)!r} != brute force {expected.get(key)!r}")
    got = [(st["samples"], st["misclassified"], st["opening_samples"],
            st["opening_misclassified"]) for st in doc["per_event"]]
    expect(got == expected["per_event"], f"{path}: per-event counts differ")


def check_flags(path: Path, source: str, expected: np.ndarray) -> None:
    got_source, idx = read_flags(path)
    want = np.nonzero(expected)[0]
    expect(got_source in ("", source), f"{path}: source {got_source!r} != {source!r}")
    expect(np.array_equal(idx, want),
           f"{path}: {idx.size} flags differ from the {want.size} recomputed")


def check_injection(clean: np.ndarray, faulted: np.ndarray, labels: dict,
                    plan: dict) -> None:
    """Spikes are v * (1 + f) at the labels; bursts stay inside their windows."""
    n = clean.size
    touched = np.zeros(n, dtype=bool)
    if labels["short"]:
        idx = np.array(labels["short"])
        expect(idx.size == round(plan["short_fraction"] * n),
               f"{idx.size} spikes, want round({plan['short_fraction']} * {n})")
        expect(bool(np.all(faulted[idx] == clean[idx] * (1.0 + plan["short_intensity"]))),
               "spiked values are not v * (1 + short_intensity)")
        touched[idx] = True
    if labels["noise"]:
        budget = round(plan["noise_total_fraction"] * n)
        lengths = plan["noise_burst_lengths"]
        placed = 0
        for s, ln in labels["noise"]:
            expect(ln in lengths and not touched[s:s + ln].any(),
                   f"burst ({s}, {ln}) overlaps or has an unplanned length")
            touched[s:s + ln] = True
            placed += ln
        expect(budget - max(lengths) < placed <= budget,
               f"{placed} burst samples for a budget of {budget}")
    expect(bool(np.all(faulted[~touched] == clean[~touched])),
           "samples outside the labels changed")


def check_noise_model(path: Path, train: np.ndarray) -> None:
    doc = json.loads(Path(path).read_text())
    sigma, spread = noise_band(train, doc["window_len"])
    for key, want in (("sigma_train", sigma), ("sigma_hist_spread", spread)):
        expect(math.isclose(doc[key], want, rel_tol=1e-12, abs_tol=1e-300),
               f"{path}: {key} {doc[key]!r} != {want!r}")
