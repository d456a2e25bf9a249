"""Seeded generator of recorded-looking field data, independent of faultlab.

It writes what a user brings from a deployment: two sensor CSVs (a calm
training stretch and a rainy test stretch) and a rain-gauge CSV, and returns
what it planted so the checks can compare the program's repairs with it.

The sensor files use ISO-8601 timestamps in three spellings, interleave the
nodes row by row, carry an extra column and `#` comment lines, and miss
samples three ways: an absent row, an empty value cell and a `nan` cell.
Runs of one to three missing samples are interpolated by the program; node
`f3` also has longer holes that split its series.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

NODES = ("f1", "f2", "f3")
SPLIT_NODE = "f3"
MODALITIES = ("soil_moisture", "box_temp")
INTERVAL_S = 600
RAIN_INTERVAL_S = 900
T0 = 1743465600  # 2025-04-01T00:00:00Z
DAY_S = 86400
MAX_INTERPOLATED_RUN = 3

_ISO = ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S+00:00", "%Y-%m-%d %H:%M:%S")


def _iso(t: int, k: int) -> str:
    return datetime.fromtimestamp(t, timezone.utc).strftime(_ISO[k % 3])


def _storms(rng, t_start: int, days: int) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Rain amounts per gauge record, and the event windows planted.

    One storm per three-day slot, in the slot's first half: 4-24 wet records,
    sometimes broken by a dry spell of 1-3 records (short enough to merge).
    A drizzle of 1-2 records totalling under 1 mm sits in the second half.
    """
    n = days * DAY_S // RAIN_INTERVAL_S
    amounts = np.zeros(n)
    per_slot = 3 * DAY_S // RAIN_INTERVAL_S
    windows = []
    for slot in range(0, n - per_slot + 1, per_slot):
        first = slot + int(rng.integers(4, per_slot // 2 - 32))
        wet = int(rng.integers(4, 25))
        idx = list(range(first, first + wet))
        if rng.random() < 0.5:
            cut, dry = int(rng.integers(1, wet)), int(rng.integers(1, 4))
            idx = idx[:cut] + [i + dry for i in idx[cut:]]
        amounts[idx] = np.round(rng.uniform(0.3, 3.0, len(idx)), 1)
        windows.append((float(t_start + idx[0] * RAIN_INTERVAL_S),
                        float(t_start + (idx[-1] + 1) * RAIN_INTERVAL_S)))
        drizzle = slot + per_slot // 2 + int(rng.integers(8, per_slot // 2 - 8))
        amounts[drizzle:drizzle + int(rng.integers(1, 3))] = np.round(rng.uniform(0.1, 0.4), 1)
    # A record's amount covers the interval ending at its timestamp.
    return amounts, windows


def _signals(rng, t: np.ndarray, windows, scale: float) -> dict[str, np.ndarray]:
    excess = np.zeros(t.size)
    for start, end in windows:
        amp = 0.004 * scale * (end - start) / 3600.0
        excess += np.where(t < start, 0.0,
                           np.where(t < end, amp, amp * np.exp(-(t - end) / 172800.0)))
    soil = np.round(0.2 + excess + rng.normal(0.0, 0.002, t.size), 5)
    phase = 2 * np.pi * np.mod(t, DAY_S) / DAY_S - np.pi / 2
    box = np.round(25 + 6 * np.sin(phase) + rng.normal(0.0, 0.3, t.size), 2)
    return {"soil_moisture": soil, "box_temp": box}


def _plant_gaps(rng, n: int, split: bool) -> np.ndarray:
    """Missing-sample mask: holes of 1-3 samples every 40-560 samples.

    On a split node the third and sixth holes are 6-20 samples long instead.
    """
    missing = np.zeros(n, dtype=bool)
    pos = 10
    for k in range(n):
        pos += int(rng.integers(40, 560))
        length = int(rng.integers(6, 21) if split and k in (2, 5) else rng.integers(1, 4))
        if pos + length + 10 >= n:
            break
        missing[pos:pos + length] = True
        pos += length
    return missing


def expected_pieces(t: np.ndarray, v: np.ndarray, missing: np.ndarray):
    """Pieces, filled count and split count that an ingest must produce.

    Interpolation uses the expression the format documents,
    ``v[i] + (v[i+1] - v[i]) * j / k``, so repaired values are exact.
    """
    present = np.nonzero(~missing)[0]
    pieces = [(float(t[present[0]]), [float(v[present[0]])])]
    filled = splits = 0
    for a, b in zip(present[:-1].tolist(), present[1:].tolist()):
        k = b - a
        if k - 1 > MAX_INTERPOLATED_RUN:
            splits += 1
            pieces.append((float(t[b]), [float(v[b])]))
            continue
        va, vb = float(v[a]), float(v[b])
        pieces[-1][1].extend(va + (vb - va) * j / k for j in range(1, k))
        filled += k - 1
        pieces[-1][1].append(vb)
    return [(t0, np.array(vals)) for t0, vals in pieces], filled, splits


def _write_sensor_csv(path: Path, rng, t: np.ndarray, series: dict, missing: dict) -> int:
    """Interleaved rows, one per (time, node, modality); returns data rows."""
    lines = ["# exported by field gateway, UTC",
             "# columns: timestamp,node_id,modality,value,battery_v",
             "timestamp,node_id,modality,value,battery_v"]
    rows = 0
    battery = np.round(3.6 + 0.2 * rng.random(t.size), 2)
    for i, ti in enumerate(t.tolist()):
        if i and i % 2000 == 0:
            lines.append(f"# logger restart at sample {i}")
        stamp = _iso(int(ti), i)
        for j, (key, v) in enumerate(series.items()):
            value = repr(float(v[i]))
            if missing[key][i]:
                how = (i + j) % 3
                if how == 0:
                    continue  # the row is absent
                value = "" if how == 1 else "nan"
            lines.append(f"{stamp},{key[0]},{key[1]},{value},{battery[i]}")
            rows += 1
    path.write_text("\n".join(lines) + "\n")
    return rows


def make_field(d: Path, seed: int, train_days: int, test_days: int) -> dict:
    """Write train.csv, test.csv and rain.csv into `d`; return the truth.

    The truth holds, per file, {(node, modality): (pieces, filled, splits)}
    and its data-row count, plus the planted storm windows.
    """
    rng = np.random.default_rng([seed, 7])
    t_test = T0 + train_days * DAY_S
    amounts, windows = _storms(rng, t_test, test_days)
    rain_t = t_test + RAIN_INTERVAL_S * (1 + np.arange(amounts.size))
    (d / "rain.csv").write_text(
        "# tipping-bucket gauge, mm per 15 min\ntimestamp,amount_mm\n"
        + "".join(f"{_iso(int(ti), 0)},{a}\n" for ti, a in zip(rain_t.tolist(), amounts)))

    truth: dict = {"storms": windows}
    for name, start, days, storms in (("train", T0, train_days, []),
                                      ("test", t_test, test_days, windows)):
        t = start + INTERVAL_S * np.arange(days * DAY_S // INTERVAL_S)
        series, missing, expected = {}, {}, {}
        for i, node in enumerate(NODES):
            signals = _signals(rng, t.astype(float), storms, 1.0 + 0.25 * i)
            for mod in MODALITIES:
                key = (node, mod)
                series[key] = signals[mod]
                missing[key] = _plant_gaps(rng, t.size, node == SPLIT_NODE)
                expected[key] = expected_pieces(t.astype(float), signals[mod], missing[key])
        rows = _write_sensor_csv(d / f"{name}.csv", rng, t, series, missing)
        truth[name] = {"series": expected, "rows": rows}
    return truth
