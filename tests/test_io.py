"""CSV ingestion (grid repair, splitting) and the file formats round-trip."""

import ast
import csv
import math
import os
import threading
import tracemalloc
from datetime import datetime, timedelta, timezone
from functools import partial
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import faultlab.io as fio
from faultlab import ConfigError, DataError, EventWindow, Modality, PrecipRecord, Series
from faultlab.io import (
    DEFAULT_SINGLETON_INTERVAL,
    MAX_INTERPOLATED_RUN,
    SERIES_COLUMNS,
    SPACING_RTOL,
    IngestReport,
    ingest_csv,
    json_fields,
    json_number,
    format_timestamp,
    read_detection_csv,
    read_events_csv,
    read_precip_csv,
    read_series,
    write_detection_csv,
    write_events_csv,
    write_series_csv,
)
from faultlab.series import index_array

HEADER = "timestamp,node_id,modality,value\n"


def write(tmp_path, body, name="data.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body)
    return p


def test_ingest_three_rows(tmp_path):
    p = write(tmp_path, "0,n5,soil_moisture,0.20\n600,n5,soil_moisture,0.22\n"
                        "1200,n5,soil_moisture,0.21\n")
    rep = ingest_csv(p)
    assert len(rep.series) == 1
    s = rep.series[0]
    assert s.node_id == "n5" and s.modality is Modality.SOIL_MOISTURE
    assert s.sample_interval == 600.0 and s.start_time == 0.0
    assert np.array_equal(s.values, [0.20, 0.22, 0.21])
    assert rep.total_filled == 0 and rep.splits == {}


def test_ingest_fills_single_gap_at_midpoint(tmp_path):
    p = write(tmp_path, "0,n1,soil_moisture,0.10\n600,n1,soil_moisture,0.20\n"
                        "1800,n1,soil_moisture,0.30\n2400,n1,soil_moisture,0.30\n")
    rep = ingest_csv(p)
    s = rep.series[0]
    assert np.array_equal(s.values, [0.10, 0.20, 0.25, 0.30, 0.30])
    assert rep.total_filled == 1
    assert rep.filled[("n1", "soil_moisture")] == 1


def test_ingest_empty_value_cell_is_missing(tmp_path):
    p = write(tmp_path, "0,n1,box_temp,10\n600,n1,box_temp,\n1200,n1,box_temp,14\n"
                        "1800,n1,box_temp,16\n2400,n1,box_temp,18\n")
    rep = ingest_csv(p)
    assert np.array_equal(rep.series[0].values, [10.0, 12.0, 14.0, 16.0, 18.0])
    assert rep.total_filled == 1


def test_ingest_alternating_spacing_is_an_error(tmp_path):
    rows = []
    t = 0.0
    for k in range(9):  # 8 diffs, 4 of each: no dominant spacing
        rows.append(f"{t},n1,box_temp,{k}\n")
        t += 600.0 if k % 2 == 0 else 1200.0
    with pytest.raises(DataError, match="spacing"):
        ingest_csv(write(tmp_path, "".join(rows)))


def test_ingest_long_gap_splits_series(tmp_path):
    # 5 missing grid points (gap of 6 intervals) exceed the 3-sample repair cap
    body = ("0,n1,box_temp,1\n600,n1,box_temp,2\n1200,n1,box_temp,3\n"
            "1800,n1,box_temp,4\n2400,n1,box_temp,5\n3000,n1,box_temp,6\n"
            "6600,n1,box_temp,7\n7200,n1,box_temp,8\n7800,n1,box_temp,9\n")
    rep = ingest_csv(write(tmp_path, body))
    assert len(rep.series) == 2
    assert rep.splits[("n1", "box_temp")] == 1
    assert rep.series[0].start_time == 0.0 and len(rep.series[0]) == 6
    assert rep.series[1].start_time == 6600.0 and len(rep.series[1]) == 3


def test_ingest_three_missing_still_interpolated(tmp_path):
    body = ("0,n1,box_temp,0\n600,n1,box_temp,1\n1200,n1,box_temp,2\n"
            "1800,n1,box_temp,3\n4200,n1,box_temp,7\n4800,n1,box_temp,8\n"
            "5400,n1,box_temp,9\n")
    rep = ingest_csv(write(tmp_path, body))
    s = rep.series[0]
    assert len(rep.series) == 1
    assert np.array_equal(s.values, np.arange(10.0))
    assert rep.total_filled == 3


def test_ingest_malformed_rows_report_line_numbers(tmp_path):
    p = write(tmp_path, "0,n1,box_temp,1\nnot-a-time,n1,box_temp,2\n")
    with pytest.raises(DataError, match=":3"):
        ingest_csv(p)
    p2 = write(tmp_path, "0,n1,box_temp,abc\n", name="bad.csv")
    with pytest.raises(DataError, match="bad value"):
        ingest_csv(p2)
    p3 = write(tmp_path, "0,n1,wind_speed,1\n", name="mod.csv")
    with pytest.raises(DataError, match="malformed"):
        ingest_csv(p3)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_ingest_non_finite_timestamp_is_a_malformed_row(tmp_path, bad):
    rows = [f"{k * 600},n1,soil_moisture,0.2\n" for k in range(10)]
    rows[5] = f"{bad},n1,soil_moisture,0.2\n"
    with pytest.raises(DataError, match=r"data.csv:7: malformed row$"):
        ingest_csv(write(tmp_path, "".join(rows)))
    with pytest.raises(DataError, match="non-finite"):
        fio._stamps([bad])


def test_ingest_missing_column_and_empty(tmp_path):
    p = tmp_path / "cols.csv"
    p.write_text("timestamp,node_id,value\n0,n1,1\n")
    with pytest.raises(DataError, match="modality"):
        ingest_csv(p)
    p2 = write(tmp_path, "", name="empty.csv")
    with pytest.raises(DataError, match="no data rows"):
        ingest_csv(p2)


def test_ingest_all_values_missing_for_group(tmp_path):
    p = write(tmp_path, "0,n1,box_temp,\n600,n1,box_temp,\n")
    with pytest.raises(DataError):
        ingest_csv(p)


def test_ingest_comment_and_blank_lines(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# produced by a generator\n" + HEADER + "0,n1,box_temp,1\n\n"
                 "# a note\n600,n1,box_temp,2\n")
    rep = ingest_csv(p)
    assert np.array_equal(rep.series[0].values, [1.0, 2.0])


def test_ingest_groups_by_node_and_modality(tmp_path):
    body = ("0,n1,box_temp,1\n0,n2,box_temp,5\n600,n1,box_temp,2\n"
            "600,n2,box_temp,6\n0,n1,soil_moisture,0.2\n600,n1,soil_moisture,0.3\n")
    rep = ingest_csv(write(tmp_path, body))
    assert len(rep.series) == 3
    assert len(rep.find("n1", "box_temp")) == 1
    assert len(rep.find("n1", Modality.SOIL_MOISTURE)) == 1
    assert rep.find("n3", "box_temp") == []


def test_timestamp_parsing_and_formatting():
    assert fio._stamps(["600", "1970-01-01T00:10:00Z", "1970-01-01T00:10:00+00:00",
                        "1970-01-01T01:10:00+01:00", "1970-01-01 00:10"]).tolist() == [600.0] * 5
    assert format_timestamp(600.0) == "600"
    assert format_timestamp(600.5) == "600.5"


def test_series_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    orig = [
        Series("a", Modality.BOX_TEMP, 0.0, 600.0, rng.normal(25, 3, size=40)),
        Series("b", Modality.SOIL_MOISTURE, 1200.0, 600.0, rng.random(17)),
    ]
    p = tmp_path / "series.csv"
    write_series_csv(p, orig)
    rep = ingest_csv(p)
    assert len(rep.series) == 2
    for s, t in zip(orig, sorted(rep.series, key=lambda x: x.node_id)):
        assert s.same_grid(t)
        assert np.array_equal(s.values, t.values)  # repr round-trip is exact
    assert "\r" not in p.read_bytes().decode()


def test_events_and_precip_csv(tmp_path):
    evs = [EventWindow(900.0, 2700.0), EventWindow(4500.0, 5400.0)]
    p = tmp_path / "events.csv"
    write_events_csv(p, evs)
    assert read_events_csv(p) == evs

    q = tmp_path / "precip.csv"
    q.write_text("timestamp,amount_mm\n900,0\n1800,2.5\n2700,0\n")
    recs = read_precip_csv(q)
    assert [(r.time, r.amount_mm) for r in recs] == [(900.0, 0.0), (1800.0, 2.5), (2700.0, 0.0)]
    with pytest.raises(DataError):
        read_precip_csv(p)  # wrong columns


def test_detection_csv_round_trip(tmp_path):
    p = tmp_path / "flags.csv"
    write_detection_csv(p, [7, 3], "short")
    assert p.read_text() == "index,flag_source\n3,short\n7,short\n"
    # `detect` writes one source; the reader also takes a hand-edited file of several
    p.write_text("index,flag_source\n7,short\n3,short\n3,noise\n10,llse\n")
    out = read_detection_csv(p)
    assert out["short"].tolist() == [3, 7]
    assert out["noise"].tolist() == [3]
    assert out["llse"].tolist() == [10]

    bad = tmp_path / "bad.csv"
    bad.write_text("index,flag_source\n1,bogus\n")
    with pytest.raises(DataError, match="flag_source"):
        read_detection_csv(bad)


FLAG_INDICES = st.lists(st.one_of(st.integers(0, 40), st.sampled_from([0, 2**63 - 1]),
                                  st.integers(0, 2**63 - 1)), max_size=12)


@settings(max_examples=100, deadline=None)
@given(flags=FLAG_INDICES, source=st.sampled_from(["short", "noise", "llse"]),
       form=st.sampled_from([list, tuple, lambda f: np.array(f, dtype=np.int64)]))
def test_detection_writer_matches_the_csv_module(tmp_path_factory, flags, source, form):
    # The oracle is the former writer, csv over sorted (index, source) rows of
    # a DetectionResult, whose flags were distinct.
    d = tmp_path_factory.mktemp("flags")
    with open(d / "oracle.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(("index", "flag_source"))
        w.writerows(sorted({(i, source) for i in flags}))
    write_detection_csv(d / "flags.csv", form(flags), source)
    assert (d / "flags.csv").read_bytes() == (d / "oracle.csv").read_bytes()
    out = read_detection_csv(d / "flags.csv")
    assert {src: idx.tolist() for src, idx in out.items()} == \
        ({source: sorted(set(flags))} if flags else {})


def test_errors_cite_the_files_own_line(tmp_path):
    p = tmp_path / "late.csv"
    p.write_text("# a\n# b\n" + HEADER + "0,n1,box_temp,1\n\n  \nbad,n1,box_temp,2\n")
    with pytest.raises(DataError, match=r"late.csv:7: malformed row$"):
        ingest_csv(p)
    q = tmp_path / "flags.csv"
    q.write_text("# from detect\nindex,flag_source\n\n3,short\n4,bogus\n")
    with pytest.raises(DataError, match=r"flags.csv:5: unknown flag_source"):
        read_detection_csv(q)


def test_short_rows_read_missing_cells_as_empty(tmp_path):
    p = write(tmp_path, "0,n1,box_temp,1\n600,n1,box_temp,2\n1200,n1,box_temp\n"
                        "1800,n1,box_temp,4\n2400,n1,box_temp,5\n")
    rep = ingest_csv(p)
    assert np.array_equal(rep.series[0].values, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert rep.total_filled == 1
    for body, line in (("0,n1\n", 2), ("0,n1,box_temp,1\n600\n", 3)):
        with pytest.raises(DataError, match=f"data.csv:{line}: malformed row"):
            ingest_csv(write(tmp_path, body))
    events = tmp_path / "events.csv"
    events.write_text("start,end\n3600\n")
    with pytest.raises(DataError, match="events.csv:2: malformed row"):
        read_events_csv(events)
    precip = tmp_path / "precip.csv"
    precip.write_text("timestamp,amount_mm\n900,1\n1800\n")
    with pytest.raises(DataError, match="precip.csv:3: malformed row"):
        read_precip_csv(precip)


@pytest.mark.parametrize("index", ["99999999999999999999999", "-9223372036854775809",
                                   "1.5", "", "x"])
def test_flag_indices_must_be_int64(tmp_path, index):
    p = tmp_path / "flags.csv"
    p.write_text(f"index,flag_source\n{index},short\n")
    with pytest.raises(DataError, match="flags.csv:2: malformed row"):
        read_detection_csv(p)


def test_unreadable_rows_are_data_errors(tmp_path):
    p = tmp_path / "bytes.csv"
    p.write_bytes(HEADER.encode() + b"0,n1,box_temp,1\n600,n1,box_\xff\xfe,2\n")
    with pytest.raises(DataError, match="bytes.csv:3: not text in the expected encoding$"):
        ingest_csv(p)
    q = write(tmp_path, "0,n1,box_temp," + "9" * 200_000 + "\n", name="wide.csv")
    with pytest.raises(DataError, match="wide.csv:2: malformed row"):
        ingest_csv(q)
    no_end = tmp_path / "no_end.csv"
    no_end.write_text("start\n3600\n")
    with pytest.raises(DataError, match="missing column 'end'"):
        read_events_csv(no_end)


def test_json_number_rule():
    assert json_number(3, "x", int) == 3 and json_number(3, "x") == 3.0
    assert json_number(2**63 - 1, "x", int) == 2**63 - 1
    assert json_number(-1e300, "x") == -1e300
    for bad in (True, "3", None, [3], 2**63, -2**63 - 1, 3.0, float("inf")):
        with pytest.raises(DataError):
            json_number(bad, "x", int)
    for bad in (False, "0.5", float("nan"), float("-inf"), 10**400):
        with pytest.raises(ConfigError):
            json_number(bad, "x", error=ConfigError)
    assert json_fields({"a": 1}, "doc", ("a", "b")) == {"a": 1}
    with pytest.raises(DataError, match=r"doc: unknown keys \['c'\]"):
        json_fields({"a": 1, "c": 2}, "doc", ("a", "b"))
    with pytest.raises(DataError, match=r"doc: missing keys \['b'\]"):
        json_fields({"a": 1}, "doc", ("a", "b"), ("b",))


CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "900", "1800", "2.5", "-1", "nan", "inf", "1e400",
                     "1e308", "-1e308", "1970-01-01T00:15:00Z", "9999-12-31T23:59:59-01:00",
                     "0001-01-01T00:00:00+01:00", '"', '"a,b"', "#", "x"]),
    st.text(max_size=4))
LINES = st.one_of(st.lists(CELLS, max_size=4).map(",".join),
                  st.sampled_from(["timestamp,amount_mm", "# note", "", "   "]))


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(LINES, max_size=6), header=st.booleans())
def test_precip_reader_returns_records_or_a_data_error(tmp_path_factory, lines, header):
    p = tmp_path_factory.mktemp("precip") / "precip.csv"
    p.write_text("\n".join((["timestamp,amount_mm"] if header else []) + lines) + "\n")
    try:
        records = read_precip_csv(p)
    except DataError:
        return
    assert all(isinstance(r, PrecipRecord) for r in records)


# --------------------------------------------------------------------------
# The row-at-a-time reader, repair and writer that the block reader and the
# vectorised repair replaced, kept as the oracle they must agree with.
# --------------------------------------------------------------------------

def oracle_rows(path, columns, parse):
    lineno = 0

    def lines(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, 1):
            if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):  # not decoded
                raise DataError(f"{path}:{lineno}: not text in the expected encoding")
            if not (line.startswith("#") or line.isspace()):
                yield line

    with path.open(newline="", errors="surrogateescape") as fh:
        try:
            reader = csv.reader(lines(fh))
            at = {name: i for i, name in enumerate(next(reader, []))}
            for col in columns:
                if col not in at:
                    raise DataError(f"{path}: missing column {col!r}")
            pos = [at[col] for col in columns]
            width, pick = max(pos) + 1, itemgetter(*pos)
            for cells in reader:
                if len(cells) < width:
                    cells += [""] * (width - len(cells))
                try:
                    row = parse(*pick(cells))
                except (DataError, ValueError):
                    raise DataError(f"{path}:{lineno}: malformed row") from None
                yield lineno, row
        except csv.Error as exc:
            raise DataError(f"{path}:{lineno}: malformed row ({exc})") from None


def oracle_nominal_interval(diffs):
    order = np.sort(diffs)
    clusters = [[order[0]]]
    for d in order[1:]:
        if d - clusters[-1][0] <= SPACING_RTOL * clusters[-1][0]:
            clusters[-1].append(d)
        else:
            clusters.append([d])
    best = max(clusters, key=len)
    if len(best) * 2 <= diffs.size:
        raise DataError("irregular spacing: no dominant sample interval")
    return float(np.median(best))


def expanded_median_nominal_interval(diffs):
    """`io._nominal_interval` with the dominant cluster's median taken by
    expanding its run lengths back to one float per diff."""
    spacings, counts = np.unique(diffs, return_counts=True)
    firsts = [0]
    for i, d in enumerate(spacings.tolist()):
        first = spacings[firsts[-1]]
        if d - first > SPACING_RTOL * first:
            firsts.append(i)
    sizes = np.add.reduceat(counts, firsts)
    best = int(np.argmax(sizes))
    if sizes[best] * 2 <= diffs.size:
        raise DataError("irregular spacing: no dominant sample interval")
    members = slice(firsts[best], (firsts + [spacings.size])[best + 1])
    with np.errstate(over="ignore"):  # two middle spacings near the float maximum
        return float(np.median(np.repeat(spacings[members], counts[members])))


# A spacing scaled by 1 + r, with r on both sides of the 1 % cluster edge,
# each repeated an odd or even number of times.
RUNS = st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.002, -0.004, 0.0099, 0.01, 0.0101,
                                           0.0199, 0.02, 0.0201, -0.01, 0.5]),
                          st.integers(1, 4)), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from([600.0, 1.0, 1.0 / 3.0, 86400.0, 5e-324, 1e308]), runs=RUNS)
def test_nominal_interval_median_matches_the_expanded_median(base, runs):
    diffs = np.repeat([base * (1 + r) for r, _ in runs], [n for _, n in runs])

    def outcome(fn):
        try:
            return fn(diffs)
        except DataError as exc:
            return str(exc)

    assert outcome(fio._nominal_interval) == outcome(expanded_median_nominal_interval)


def oracle_repair_group(key, times, values, report):
    node_id, modality = key
    t = np.array(times, dtype=np.float64)
    v = np.array(values, dtype=np.float64)
    if t.size == 0:
        raise DataError(f"all-missing series for node {node_id!r} modality {modality!r}")
    if t.size == 1:
        return [Series(node_id, modality, float(t[0]), DEFAULT_SINGLETON_INTERVAL, v)]
    diffs = np.diff(t)
    if np.any(diffs <= 0):
        raise DataError(f"timestamps not strictly increasing for node {node_id!r} "
                        f"modality {modality!r}")
    nominal = oracle_nominal_interval(diffs)
    segments = [(float(t[0]), [float(v[0])])]
    filled = splits = 0
    for i, d in enumerate(diffs):
        k = int(round(d / nominal))
        if k < 1 or abs(d - k * nominal) > SPACING_RTOL * nominal:
            raise DataError(
                f"irregular spacing for node {node_id!r} modality {modality!r}: "
                f"gap of {d} s is not a whole multiple of {nominal} s")
        if k - 1 > MAX_INTERPOLATED_RUN:
            splits += 1
            segments.append((float(t[i + 1]), [float(v[i + 1])]))
            continue
        vals = segments[-1][1]
        for j in range(1, k):
            vals.append(float(v[i] + (v[i + 1] - v[i]) * j / k))
        filled += k - 1
        vals.append(float(v[i + 1]))
    if filled:
        report.filled[key] = filled
    if splits:
        report.splits[key] = splits
    return [Series(node_id, modality, start, nominal, np.array(vals)) for start, vals in segments]


def oracle_ingest_csv(path):
    def parse(ts, node, modality, raw):
        return reference_stamp(ts), (node.strip(), Modality(modality.strip()).value), raw.strip()

    groups = {}
    for lineno, (t, key, raw) in oracle_rows(path, SERIES_COLUMNS, parse):
        if not key[0]:
            raise DataError(f"{path}:{lineno}: malformed row (empty node_id)")
        group = groups.setdefault(key, ([], []))
        if raw == "":
            continue
        try:
            val = float(raw)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed row (bad value {raw!r})") from None
        if math.isfinite(val):
            group[0].append(t)
            group[1].append(val)
    if not groups:
        raise DataError(f"{path}: no data rows")
    report = IngestReport(series=[])
    for key, (times, values) in groups.items():
        report.series.extend(oracle_repair_group(key, times, values, report))
    return report


def oracle_write_series_csv(path, series):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(SERIES_COLUMNS)
        w.writerows([format_timestamp(s.start_time + k * s.sample_interval), s.node_id,
                     s.modality.value, repr(val)]
                    for s in series for k, val in enumerate(s.values.tolist()))


def outcome(ingest, path):
    """What an ingest gives, in comparable form: the series and the repair
    counts, or the text of its DataError (the type of any other error)."""
    try:
        rep = ingest(path)
    except DataError as exc:
        return str(exc)
    except Exception as exc:  # any other failure must at least match in type
        return type(exc)
    return ([(s.node_id, s.modality, s.start_time, s.sample_interval, s.values.tobytes())
             for s in rep.series], rep.filled, rep.splits)


# Rows per block the writer is checked at.
BLOCK_SIZES = (1, 3, fio._BLOCK)
# Chunk sizes the readers are checked at. Chunks of 1, 2 and 7 characters
# cut a file at every offset or close to it: inside a line, between "\r" and
# "\n", just after a "#", and before a last line that has no line end; a
# 64-character chunk holds a few lines.
SIZES = (1, 2, 7, 64, fio._CHUNK)


def every_size():
    """Patch in each chunk size of `SIZES` in turn, yielding its name."""
    for chunk in SIZES:
        with mock.patch.object(fio, "_CHUNK", chunk):
            yield f"_CHUNK = {chunk}"


def oracle_precip(path):
    def parse(ts, mm):
        return PrecipRecord(reference_stamp(ts), float(mm))

    return [rec for _, rec in oracle_rows(path, ("timestamp", "amount_mm"), parse)]


def oracle_events(path):
    def parse(start, end):
        return EventWindow(reference_stamp(start), reference_stamp(end))

    return [ev for _, ev in oracle_rows(path, ("start", "end"), parse)]


def oracle_detection(path):
    def parse(index, src):
        return json_number(int(index), "index", int), src.strip()

    by_source = {}
    for lineno, (idx, src) in oracle_rows(path, ("index", "flag_source"), parse):
        if src not in ("short", "noise", "llse"):
            raise DataError(f"{path}:{lineno}: unknown flag_source {src!r}")
        by_source.setdefault(src, []).append(idx)
    return {src: index_array(idxs) for src, idxs in by_source.items()}


# reader, oracle and columns of each CSV read into records
SMALL_READERS = {
    "precip": (read_precip_csv, oracle_precip, ("timestamp", "amount_mm")),
    "events": (read_events_csv, oracle_events, ("start", "end")),
    "flags": (read_detection_csv, oracle_detection, ("index", "flag_source")),
}


def small_outcome(read, path):
    """What a reader gives, in comparable form: the records' reprs (so -0.0
    is not 0.0) or each source's indices in order, or its DataError text."""
    try:
        out = read(path)
    except DataError as exc:
        return str(exc)
    if isinstance(out, dict):
        return [(src, idx.tolist()) for src, idx in out.items()]
    return list(map(repr, out))


def check_small_reader(path, reader):
    """The reader's outcome, after checking that it is the oracle's at every pair of `SIZES`."""
    read, oracle, _ = SMALL_READERS[reader]
    expected = small_outcome(oracle, path)
    for sizes in every_size():
        assert small_outcome(read, path) == expected, sizes
    return expected


SMALL_CELLS = st.one_of(CELLS, st.sampled_from([
    "5", " 5", "1_0", "1.5", "9223372036854775807", "9223372036854775808",
    "-9223372036854775809", "short", " noise ", "llse", "Short", "bogus",
    "2025-04-01", "2025-04-01T00:30", "2025-04-01T00:00:00\x00"]))
SMALL_LINES = st.one_of(st.lists(SMALL_CELLS, min_size=2, max_size=2).map(",".join), LINES)


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(SMALL_READERS)), lines=st.lists(SMALL_LINES, max_size=8),
       header=st.sampled_from([None, 1, -1]))
def test_small_readers_match_the_row_reader(tmp_path_factory, reader, lines, header):
    columns = SMALL_READERS[reader][2]
    p = tmp_path_factory.mktemp(reader) / f"{reader}.csv"
    head = [",".join(columns[::header])] if header else []
    p.write_bytes(("\n".join(head + lines) + "\n").encode())
    check_small_reader(p, reader)


@pytest.mark.parametrize("reader, body, message", [
    # a row with two bad cells: the index rule runs before the source rule
    ("flags", "1.5,bogus\n", "flags.csv:2: malformed row"),
    ("flags", "99999999999999999999,bogus\n", "flags.csv:2: malformed row"),
    # the first bad row is reported, whichever rule refuses it
    ("flags", "3,short\n4,bogus\n1.5,short\n", "flags.csv:3: unknown flag_source 'bogus'"),
    ("flags", "3,short\n-9223372036854775809,short\n4,bogus\n", "flags.csv:3: malformed row"),
    # int's own spellings read; sources come in order of first appearance
    ("flags", " 5,llse\n1_0, short \n2,llse\n", None),
    # a block is a chunk's rows, more than 4,096 of them here: the bad row is still named
    ("flags", "1,short\n" * 4200 + "x,short\n" + "2,short\n" * 9, "flags.csv:4202: malformed row"),
    ("precip", "900,1\nx,-1\n", "precip.csv:3: malformed row"),
    ("precip", "2025-04-01T00:00:00Z,1\n2025-04-01 00:15:00,2\n1743467400.5,0\n", None),
    ("events", "2025-04-01T00:00:00Z,2025-04-01T01:00:00\n7200,3600\n",
     "events.csv:3: malformed row"),
    ("events", "2025-04-01,2025-04-01T01:00\n2025-04-01T02:00:00+00:00,1743476400\n", None),
], ids=["flags-both-cells-bad", "flags-overflow-and-source", "flags-source-first",
        "flags-overflow-first", "flags-int-spellings", "flags-bad-row-past-4096",
        "precip-bad-row", "precip-iso", "events-bad-window", "events-iso"])
def test_small_reader_cases(tmp_path, reader, body, message):
    p = tmp_path / f"{reader}.csv"
    p.write_text(",".join(SMALL_READERS[reader][2]) + "\n" + body)
    expected = check_small_reader(p, reader)
    if message is None:
        assert not isinstance(expected, str) and expected
    else:
        assert isinstance(expected, str) and expected.endswith(message)


T0 = 1743465600  # 2025-04-01T00:00:00Z
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def epoch_seconds(*date) -> int:
    return (datetime(*date, tzinfo=timezone.utc) - EPOCH) // timedelta(seconds=1)


# Calendar boundaries the stamps of a drawn file run across: a month's
# start, the end of a leap day, the end of February in a century that is not
# a leap year, and the epoch (negative stamps before it); and the first and
# last second ISO-8601 spells.
BOUNDARIES = (T0, epoch_seconds(2000, 3, 1), epoch_seconds(2100, 3, 1), 0)
FIRST_ISO, LAST_ISO = epoch_seconds(1, 1, 1), epoch_seconds(9999, 12, 31, 23, 59, 59)
# The strict ISO spellings as (date-time separator, zone).
ISO_SPELLINGS = (("T", "Z"), ("T", "+00:00"), (" ", ""))
MODALITY_CELLS = st.sampled_from(["soil_moisture", "box_temp", " box_temp "])
MISSING_CELLS = st.sampled_from(["", " ", "nan", "NaN", "1e400", "-inf", "\t"])
ODD_NUMBERS = st.sampled_from([" 2.5 ", "1_0", "-0.0", "5e-324", "\u0661"])
BAD_NUMBERS = st.sampled_from(["0x1", "abc", "1.5.2"])
# Bytes that do not decode, as a file opened with errors="surrogateescape"
# reads them: a stray byte, a two-byte sequence cut short and an encoded
# surrogate. Written back with errors="surrogateescape".
UNDECODABLE = ["\udcff", "\udcc3", "\udced\udca0\udc80"]
BAD_CELLS = st.sampled_from(["x", "", " ", "wind_speed", "nan", "inf", "2025-13-01T00:00:00Z",
                             '"', '"open', "#", "1970-01-01T00:15:00Z", *UNDECODABLE])
EXTRA_LINES = st.sampled_from(["# a note", "#", "# quoted \"note", "", "   ", "\t", "# \udcff"])


def spell_node(node, variant):
    """`node` as a cell: quoted, bare, or bare with a space to strip."""
    quoted = '"' + node.replace('"', '""') + '"'
    if variant == 0 or any(c in node for c in ',"\n'):
        return quoted
    return node if variant == 1 else f" {node}"


def iso(t, separator="T", zone=""):
    """`t` spelled `YYYY-MM-DD<separator>hh:mm:ss<zone>`, zero-padded (strftime
    writes year 1 as `1` on glibc)."""
    d = EPOCH + timedelta(seconds=t)
    return (f"{d.year:04d}-{d.month:02d}-{d.day:02d}{separator}"
            f"{d.hour:02d}:{d.minute:02d}:{d.second:02d}{zone}")


def stamp(t, spelling):
    if spelling < len(ISO_SPELLINGS):
        return iso(t, *ISO_SPELLINGS[spelling])
    return repr(float(t)) if spelling == 3 else str(t)


def fromisoformat_micros(text):
    """Epoch microseconds of `text` as the running Python's
    `datetime.fromisoformat` reads it, with `Z` read as `+00:00`, UTC when no
    zone is given, and surrounding whitespace stripped; ValueError when it
    refuses it, or when it holds a NUL, which it may read as a separator."""
    raw = text.strip()
    if "\x00" in raw:
        raise ValueError(f"NUL in {text!r}")
    dt = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    return ((dt if dt.tzinfo else dt.replace(tzinfo=timezone.utc)) - EPOCH) \
        // timedelta(microseconds=1)


def reference_stamp(text):
    """Epoch seconds of a timestamp cell by the reference rules: a finite
    number, or an ISO stamp `fromisoformat_micros` reads, divided as
    `datetime.timestamp` divides it. Anything else raises DataError."""
    try:
        t = float(text)
    except ValueError:
        try:
            return fromisoformat_micros(text) / 10**6
        except ValueError:
            raise DataError(f"malformed timestamp {text!r}") from None
    if not math.isfinite(t):
        raise DataError(f"non-finite timestamp {text!r}")
    return t


# Parts of a stamp: (in the grammar, outside it). An offset is under 24 h.
STAMP_PARTS = {name: tuple(map(st.sampled_from, parts)) for name, parts in {
    "separator": (["T", " "], ["t", "_", "X", "+", "/", "\x00"]),
    "fraction": (["", ".000", ".250", ".999", ".000000", ".250000", ".999999"],
                 [".5", ".25", ".2500", ".25000", ".2500000", ",5", ",250000", "."]),
    "zone": (["", "Z", "+00:00", "-00:00", "+02:00", "-05:30", "+23:59", "-23:59:59",
              "+01:00:30", "+05:30:00.250000", "-00:00:00.250000", "+00:00:00.999999"],
             ["z", "+0000", "+0200", "+02", "+24:00", "+00:60", "+01:00:60", "+01:00:00.5",
              "+01:00:00.250", "ZZ", "+00:00Z", " Z", "UTC"]),
}.items()}
# Offsets under one second, in microseconds. CPython's C `fromisoformat`
# reads them as UTC (its pure-Python `datetime` does not); the grammar reads
# them as written.
SUBSECOND_OFFSETS = {"-00:00:00.250000": -250_000, "+00:00:00.999999": 999_999}
# Stamps Python 3.11's fromisoformat reads and the grammar does not.
SPELLINGS_311 = st.sampled_from([
    "2025-04-01T02:00:00+0200", "2025-04-01T00:00:00.5", "2025-04-01T00:00:00,5",
    "20250401T000000", "2025-W14-2", "2025W142", "2025-04-01T0000", "2025-04-01T06+02",
    "2025-04-01T00:00:00.1234567", "2025-04-01T00:00:00+00"])
# The part a near miss takes from outside the grammar (None: no part), or a
# 3.11-only spelling.
BAD_PART = st.sampled_from([None] * 10 + ["month", "day", "hour", "minute", "second",
                                          *STAMP_PARTS, "spelling"])
YEARS = st.sampled_from([0, 1, 1900, 1969, 1970, 2000, 2024, 2100, 9999, *range(2, 9999, 97)])
# A time in a year of twelve 31-day months, so some dates drawn do not exist.
WHEN = st.integers(0, 12 * 31 * 86400 - 1)
OUT_OF_RANGE = {"month": st.sampled_from([0, 13]), "day": st.sampled_from([0, 32]),
                "hour": st.just(24), "minute": st.just(60), "second": st.just(60)}
# The time's depth (date only, hour, minute, second, fraction), at least
# what a bad part needs.
DEPTHS = [st.integers(need, 4) for need in range(5)]
NEEDS = {"separator": 1, "hour": 1, "zone": 1, "minute": 2, "second": 3, "fraction": 4}
EDITS = st.sampled_from(["none"] * 5 + ["nul", "arabic", "pad", "drop", "add"])
PADS = st.sampled_from([" ", "", "\n", "\t", "\xa0"])
INSERTS = st.sampled_from(["0", "9", " ", "-", ":"])


@st.composite
def near_iso_cells(draw):
    """(cell, in the grammar, offset CPython drops) of a drawn stamp. It is
    built from the grammar's parts, or from one part outside it: a field out
    of range by one, another separator, fraction or zone; or it is a
    3.11-only spelling. Then one edit, maybe: padding keeps it in the
    grammar, a NUL or an Arabic-Indic digit takes it out, and a character
    dropped or added makes it unknown (None)."""
    bad = draw(BAD_PART)
    if bad == "spelling":
        return draw(SPELLINGS_311), False, 0
    year, when = draw(YEARS), draw(WHEN)
    fields = {"month": when // (31 * 86400) + 1, "day": when // 86400 % 31 + 1,
              "hour": when // 3600 % 24, "minute": when // 60 % 60, "second": when % 60}
    if bad in fields:
        fields[bad] = draw(OUT_OF_RANGE[bad])
    separator, fraction, zone = (draw(STAMP_PARTS[name][name == bad]) for name in STAMP_PARTS)
    depth = draw(DEPTHS[NEEDS.get(bad, 0)])
    month, day, hour, minute, second = fields.values()
    time = [f"{hour:02d}", f":{minute:02d}", f":{second:02d}", fraction][:depth]
    cell = f"{year:04d}-{month:02d}-{day:02d}" + (separator + "".join(time) + zone
                                                  if depth else "")
    grammar, dropped = bad is None, SUBSECOND_OFFSETS.get(zone, 0) if depth else 0
    edit = draw(EDITS)
    i = draw(st.integers(0, len(cell) - 1)) if edit in ("nul", "arabic", "drop", "add") else 0
    if edit == "nul":
        cell, grammar = cell[:i] + "\x00" + cell[i:], False
    elif edit == "arabic" and cell[i].isdigit():
        cell, grammar = cell[:i] + chr(0x660 + int(cell[i])) + cell[i + 1:], False
    elif edit == "pad":
        cell = draw(PADS) + cell + draw(PADS)
    elif edit in ("drop", "add"):
        cell = cell[:i] + (cell[i + 1:] if edit == "drop" else draw(INSERTS) + cell[i:])
        grammar, dropped = None, dropped if cell.endswith(zone) else 0
    return cell, grammar, dropped


@settings(max_examples=500, deadline=None)
@given(drawn=st.lists(near_iso_cells(), min_size=1, max_size=8))
@example(drawn=[("2000-02-29T00:00:00", True, 0), ("1900-02-29T00:00:00", True, 0),
                ("2100-02-29 12:00:00Z", True, 0), ("2024-02-29 23:59:59+00:00", True, 0)])
@example(drawn=[("0001-01-01T00:00:00", True, 0), ("9999-12-31T23:59:59", True, 0),
                ("0000-12-31T23:59:59Z", True, 0), ("2025-02-31", True, 0)])
@example(drawn=[("0001-01-01T00+01:00", True, 0), ("9999-12-31 23:59:59.999999-23:59", True, 0),
                ("2025-04-01T06", True, 0), ("2025-04-01T00:00:00-00:00:00.250000", True, -250_000)])
@example(drawn=[("2025-04-16 00:00:00\x00", False, 0), ("2025-04-16\x0000:00:00", False, 0),
                ("2025-04-01X12:00", False, 0), ("٢025-04-16T00:00:00", False, 0)])
def test_stamps_read_the_grammar_as_fromisoformat_does(tmp_path_factory, drawn):
    """A stamp built in the grammar reads as the running Python's
    `fromisoformat` reads it, alone and in one column with the other drawn
    stamps and a number, or is refused as fromisoformat refuses it; a stamp
    built outside the grammar is a malformed row of a gauge file on every
    Python; an edited one does either."""
    path = tmp_path_factory.getbasetemp() / "stamps.csv"
    read = {}
    for cell, grammar, dropped in drawn:
        try:
            expected = (fromisoformat_micros(cell) - dropped) / 10**6
        except ValueError:
            expected = None
        if grammar is None and expected is not None:
            try:
                assert fio._stamps([cell]).item() == expected, cell
            except (DataError, ValueError):
                continue
        if grammar is not False and expected is not None:
            read[cell] = expected
        else:
            # Quoted by hand: Python 3.10's csv writer refuses a NUL.
            quoted = cell.replace('"', '""')
            path.write_bytes(f'timestamp,amount_mm\n"{quoted}",0\n'.encode())
            with pytest.raises(DataError, match="malformed row"):
                read_precip_csv(path)
    assert fio._stamps([*read, "600"]).tolist() == [*read.values(), 600.0]


def test_stamps_read_many_distinct_stamps_over_a_few_zones():
    """A column of many distinct stamps in one zone, or in several mixed,
    reads as fromisoformat reads each stamp alone."""
    zones = ["+02:00", "Z", "-05:30", "", "+01:00:30", "+05:30:00.250000", "-00:00"]
    mixed = [f"{iso(T0 + 3601 * k)}.{k % 1000:03d}{zones[k % len(zones)]}" for k in range(3000)]
    for cells in (mixed, [cell for cell in mixed if cell.endswith("+02:00")]):
        assert fio._stamps(cells).tolist() == [fromisoformat_micros(c) / 10**6 for c in cells]


def test_iso_kernel_reads_every_day_of_leap_and_common_years():
    days = [epoch_seconds(year, 1, 1) + 86400 * i + 3600 * (i % 24) + 61 * (i % 60)
            for year in (1, 1900, 1969, 1970, 2000, 2024, 2025, 2100, 9999) for i in range(365)]
    days.append(LAST_ISO)
    for separator, zone in ISO_SPELLINGS:
        cells = [iso(t, separator, zone) for t in days]
        assert fio._iso_seconds(cells).tolist() == list(map(reference_stamp, cells)) == days
    # One cell that is not ASCII sends the whole list to the grammar.
    assert np.isnan(fio._iso_seconds(["2025-04-01T00:00:00", "\u0661"])).all()
    assert np.isnan(fio._iso_seconds(["1900-02-29T00:00:00", "2025-04-01T00:00:00\x00",
                                      "2025-04-01 00:00", " 2025-04-01T00:00:00",
                                      "2025-04-01T00:00:00+00:00 ", "600"])).all()


@st.composite
def series_csv(draw):
    """A sensor-data CSV of 1-3 groups on a grid, with gaps that interpolate
    (1-3 missing) or split (4+), jitter within the spacing tolerance, every
    timestamp spelling from just before a calendar boundary on, missing and
    odd value cells, columns in any order, rows sequential or interleaved,
    and then a few hostile edits: comment and blank lines, short and long
    rows, bad cells and an unterminated quote."""
    interval = draw(st.sampled_from([600, 900, 1]))
    # A group's k stays below 100, and jitter moves a stamp by -2 to +1 s.
    start = draw(st.sampled_from([*(b - j * interval for b in BOUNDARIES for j in (1, 3)),
                                  FIRST_ISO + 2, LAST_ISO - 99 * interval - 1]))
    keys = draw(st.lists(st.tuples(st.sampled_from(["n1", "n2", "n,3", 'q"x', "a\nb"]),
                                   MODALITY_CELLS),
                         min_size=1, max_size=3, unique_by=lambda key: (key[0], key[1].strip())))
    rows = []
    for g, (node, modality) in enumerate(keys):
        k = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(1, 12))):
            roll = draw(st.integers(0, 39))
            value = (repr(draw(st.floats(-50, 50))) if roll < 30 else
                     draw(MISSING_CELLS) if roll < 36 else
                     draw(ODD_NUMBERS) if roll < 39 else draw(BAD_NUMBERS))
            jitter = draw(st.sampled_from([0, 0, 0, 1, -2])) if interval > 1 else 0
            rows.append((k, g, {"timestamp": stamp(start + k * interval + jitter,
                                                   draw(st.integers(0, 4))),
                                "node_id": spell_node(node, draw(st.integers(0, 2))),
                                "modality": modality, "value": value}))
            k += 1 if draw(st.integers(0, 2)) else draw(st.sampled_from([2, 3, 4, 5, 8]))
    rows.sort(key=itemgetter(0, 1) if draw(st.booleans()) else itemgetter(1, 0))
    header = draw(st.permutations([*SERIES_COLUMNS, *draw(st.sampled_from([[], ["battery_v"]]))]))
    lines = [",".join(header)] + [",".join(cells.get(name, "3.7") for name in header)
                                  for _, _, cells in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1, len(lines)))
        op = draw(st.sampled_from(["line", "short", "long", "cell", "quote"]))
        if op == "line" or i == len(lines):
            lines.insert(i, draw(EXTRA_LINES))
        elif op == "short":
            lines[i] = lines[i].rsplit(",", draw(st.integers(1, 2)))[0]
        elif op == "long":
            lines[i] += ",9,9"
        elif op == "cell":
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
            lines[i] = ",".join(cells)
        else:
            lines.insert(i, '"unterminated,' + lines[i])
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines) + "\n"


CHAOS_CELLS = st.one_of(
    st.sampled_from(["", " ", "0", "600", "1200", "1800", "2.5", "-1", "nan", "inf", "1e400",
                     "n1", "soil_moisture", "box_temp", "1970-01-01T00:10:00Z", '"', '"a,b"',
                     "#", "x", "\x00", *UNDECODABLE]),
    st.text(max_size=3))
CHAOS_LINES = st.one_of(st.lists(CHAOS_CELLS, max_size=5).map(",".join),
                        st.sampled_from(["timestamp,node_id,modality,value", "# note", "", "  "]))


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(series_csv(), st.lists(CHAOS_LINES, max_size=8).map(
    lambda lines: "timestamp,node_id,modality,value\n" + "\n".join(lines) + "\n")))
def test_block_ingest_matches_the_row_reader(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("ingest") / "data.csv"
    p.write_bytes(text.encode(errors="surrogateescape"))
    expected = outcome(oracle_ingest_csv, p)
    for sizes in every_size():
        assert outcome(ingest_csv, p) == expected, sizes


def test_interleaved_keys_keep_their_order_of_first_appearance(tmp_path):
    """Series come out in the order their keys first appear, which is not the
    order of their node and modality spellings' first appearances."""
    spellings = [("n1", "box_temp"), ("n2", "soil_moisture"), (" n1", "soil_moisture"),
                 ("n2", " box_temp ")]
    p = write(tmp_path, "".join(f"{k * 600},{node},{modality},{k}\n"
                                for k in range(3) for node, modality in spellings))
    expected = outcome(oracle_ingest_csv, p)
    assert [(node, modality.value) for node, modality, *_ in expected[0]] == [
        ("n1", "box_temp"), ("n2", "soil_moisture"), ("n1", "soil_moisture"), ("n2", "box_temp")]
    for sizes in every_size():
        assert outcome(ingest_csv, p) == expected, sizes


def plain_rows(n, node="n1", start=0):
    """`n` rows of one box_temp series, a row a line, from sample `start` on."""
    return "".join(f"{k * 600},{node},box_temp,{k % 7}\n" for k in range(start, start + n))


# More rows than two chunks of the default size hold: from the 18th on, a
# row has at least 20 characters.
PLAIN = 2 * fio._CHUNK // 20 + 5


def interleaved_rows(n, nodes=4, value=lambda k, i: f"{(k * 7 + i) % 11}"):
    """`n` samples of `nodes` soil_moisture series, one row per node per sample."""
    return "".join(f"{k * 600},n{i},soil_moisture,{value(k, i)}\n"
                   for k in range(n) for i in range(nodes))


def holes(k, i):
    """Values with 1-3 missing samples to fill and one 6-sample gap in n2."""
    if (k + i) % 97 in (5, 6) or (i == 2 and 1000 <= k < 1006):
        return ""
    return f"{(k * 7 + i) % 11}"


@pytest.mark.parametrize("body, message", [
    # interpolated (2 missing) and split (5 missing) gaps in one series
    ("0,n1,box_temp,1\n600,n1,box_temp,2\n2400,n1,box_temp,5\n3000,n1,box_temp,6\n"
     "6600,n1,box_temp,7\n7200,n1,box_temp,8\n", None),
    # jitter: the spacing is the median of the dominant cluster, repeats counted
    ("0,n1,box_temp,1\n600,n1,box_temp,2\n1200,n1,box_temp,3\n1800,n1,box_temp,4\n"
     "2401,n1,box_temp,5\n3003,n1,box_temp,6\n", None),
    # the three ISO spellings, a blank and a comment line, a quoted node id
    ("2025-04-01T00:00:00Z,\"n,1\",soil_moisture,0.2\n\n# gap\n"
     "2025-04-01T00:10:00+00:00,\"n,1\",soil_moisture,\n"
     "2025-04-01 00:20:00,\"n,1\",soil_moisture,0.4\n", None),
    # a bad row before an unterminated quote: the bad row is reported
    ("0,n1,box_temp,1\nx,n1,box_temp,2\n\"open,n1,box_temp,3\n" + "1," * 70_000 + "\n",
     "data.csv:3: malformed row"),
    ("0,n1,box_temp,1\n600, ,box_temp,2\n1200,n1,wind,3\n",
     "data.csv:3: malformed row (empty node_id)"),
    ("0,n1,box_temp,1\n600,,wind,2\n", "data.csv:3: malformed row"),
    ("0,n1,box_temp,1\nx,,box_temp,oops\n", "data.csv:3: malformed row"),
    ("0,n1,box_temp, 1_0 \n600,n1,box_temp,1 e3\n", "(bad value '1 e3')"),
    # lone CR line ends
    (plain_rows(20).replace("\n", "\r"), None),
    # comment and blank lines inside a block of plain rows, then a bad row
    (plain_rows(5) + "# note\n\n  \r\n" + plain_rows(5, start=5) + "#\n" + plain_rows(3, start=10)
     + "x,n1,box_temp,1\n" + plain_rows(3, start=14), "data.csv:19: malformed row"),
    # a quoted node id first seen after two blocks of plain rows, then rows
    # the csv module reads, line numbers continuing
    (plain_rows(PLAIN) + plain_rows(4, '"n,2"') + "# note\n" + plain_rows(4, start=PLAIN), None),
    (plain_rows(PLAIN) + plain_rows(4, '"n,2"') + "# note\n" + plain_rows(4, start=PLAIN)
     + "x,n1,box_temp,1\n", f"data.csv:{PLAIN + 11}: malformed row"),
    # a line longer than csv.field_size_limit() after two blocks of plain rows
    (plain_rows(PLAIN) + "0,n1,box_temp," + "9" * (csv.field_size_limit() + 1) + "\n"
     + plain_rows(3), f"data.csv:{PLAIN + 2}: malformed row (field larger than field limit "
     f"({csv.field_size_limit()}))"),
    # undecodable bytes more than 8 KB after a bad row, and after good rows
    # only, where the first line holding them is named
    (HEADER.encode() + (plain_rows(30) + "x,n1,box_temp,1\n" + plain_rows(600, start=31)).encode()
     + b"\xff\xfe" + plain_rows(600, start=700).encode(), "data.csv:32: malformed row"),
    (HEADER.encode() + plain_rows(PLAIN).encode() + b"0,n1,box_\xff\xfe,1\n"
     + plain_rows(600, start=PLAIN).encode(),
     f"data.csv:{PLAIN + 2}: not text in the expected encoding"),
    # undecodable bytes in a comment line among plain rows, in the header,
    # after a quoted row, and after a bad row where the csv module reads
    (plain_rows(5) + "# caf\udcc3\n" + plain_rows(5, start=5),
     "data.csv:7: not text in the expected encoding"),
    ((HEADER.replace("value", "val\udcffue") + plain_rows(3)).encode(errors="surrogateescape"),
     "data.csv:1: not text in the expected encoding"),
    (plain_rows(5) + plain_rows(2, '"n,2"') + "600,n1,box_\udced\udca0\udc80,1\n" + plain_rows(3),
     "data.csv:9: not text in the expected encoding"),
    (plain_rows(PLAIN) + plain_rows(2, '"n,2"') + "x,n1,box_temp,1\n"
     + plain_rows(3000, start=PLAIN) + "#\udcff\n", f"data.csv:{PLAIN + 4}: malformed row"),
    # the key switches every 1,500 rows, so a block of the largest size holds 2-3 runs
    ("".join(plain_rows(1500, f"n{c % 3}", (c // 3) * 1500) for c in range(7)), None),
    # every row another series, with holes to fill and a gap that splits
    (interleaved_rows(2500, value=holes), None),
    # two spellings of one key inside one block, among rows of another key
    ("".join(f"{k * 600},{' n1' if k % 2 else 'n1'},box_temp,{k}\n"
             f"{k * 600},n2,box_temp,{k}\n" for k in range(10)), None),
    # n2's values are all missing in the first blocks, one key per block or interleaved
    (plain_rows(PLAIN) + "".join(f"{k * 600},n2,box_temp,{'' if k < fio._BLOCK + 9 else k}\n"
                                 for k in range(PLAIN)), None),
    (interleaved_rows(2500, 2, lambda k, i: "" if i and k < 2100 else str(k % 5)), None),
    # n0 has no value anywhere
    (interleaved_rows(3000, 2, lambda k, i: str(k % 5) if i else " "),
     "all-missing series for node 'n0' modality 'soil_moisture'"),
    # a malformed row blocks after a spacing fault: the row is reported
    (plain_rows(3) + "1900,n1,box_temp,4\n" + plain_rows(PLAIN, "n2")
     + "x,n2,box_temp,1\n", f"data.csv:{PLAIN + 6}: malformed row"),
    # a comment line with the header's width among plain rows
    (plain_rows(5) + "#0,n1,box_temp,x\n" + plain_rows(5, start=5), None),
    # a node id of two UTF-8 bytes: a line has more bytes than characters
    (plain_rows(PLAIN, "é"), None),
    # no line end after the last line, with "\n" and with "\r\n" and a comment
    (plain_rows(PLAIN)[:-1], None),
    ((plain_rows(30) + "# note\n" + plain_rows(3, start=30)).replace("\n", "\r\n")[:-2], None),
    # a line break in a quoted cell, lone-CR line ends, more rows: at 7
    # characters a chunk is cut inside the quoted cell; then with a comment
    # line after the quoted row
    ((plain_rows(2) + '1200,"n\r1",box_temp,3\n' + plain_rows(4, start=3)).replace("\n", "\r"),
     None),
    ((plain_rows(2) + '1200,"n\r1",box_temp,3\n#\n' + plain_rows(4, start=3)).replace("\n", "\r"),
     None),
    # a quoted cell of four lines: the csv module reads on into the file
    (plain_rows(2) + '1200,"n\n1\n\n2",box_temp,3\n' + plain_rows(3, start=3), None),
    # an unterminated quote on the last line
    (plain_rows(3) + '"1800,n1,box_temp,3\n', "data.csv:5: malformed row"),
], ids=["gaps", "jitter", "iso", "quote-after-bad-row", "empty-node", "modality-first",
        "timestamp-first", "bad-value", "lone-cr", "comments-in-plain-block",
        "quote-after-plain-blocks", "bad-row-after-quote", "long-line-after-plain-blocks",
        "bad-bytes-after-bad-row", "bad-bytes-after-good-rows", "bad-bytes-in-a-comment",
        "bad-bytes-in-the-header", "bad-bytes-after-a-quoted-row", "bad-row-before-bad-bytes",
        "key-runs-across-blocks",
        "interleaved-every-row", "two-spellings-one-block", "missing-in-early-blocks",
        "missing-in-early-interleaved-blocks", "all-missing-series", "bad-row-after-spacing-fault",
        "comment-of-the-header-width", "non-ascii-node", "no-final-line-end",
        "no-final-crlf-after-comment", "quoted-line-break-lone-cr",
        "quoted-line-break-then-comment", "quoted-cell-of-four-lines",
        "unterminated-quote-last-line"])
def test_block_ingest_cases(tmp_path, body, message):
    """`body` is the text after the header, or the bytes of the whole file."""
    p = tmp_path / "data.csv"
    text = body if isinstance(body, bytes) else (HEADER + body).encode(errors="surrogateescape")
    p.write_bytes(text)
    expected = outcome(oracle_ingest_csv, p)
    if message is None:
        assert not isinstance(expected, str)
    else:
        assert isinstance(expected, str) and expected.endswith(message)
    for sizes in every_size():
        assert outcome(ingest_csv, p) == expected, sizes


def through_a_pipe(read, p):
    """`read(pipe)` of a named pipe beside `p` that a thread writes `p`'s bytes into."""
    pipe = p.with_name("pipe.csv")
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(p.read_bytes(),), daemon=True)
    writer.start()
    try:
        return read(pipe)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()
        pipe.unlink()


needs_pipes = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")


@needs_pipes
def test_plain_series_files_skip_the_csv_module(tmp_path):
    rng = np.random.default_rng(9)
    series = [Series(f"n{i}", Modality.SOIL_MOISTURE, 1743465600.0, 600.0,
                     rng.normal(0.2, 0.01, size=3000)) for i in range(3)]
    p = tmp_path / "series.csv"
    write_series_csv(p, series)
    lines = p.read_text().splitlines()
    for i, extra in ((0, "# exported"), (5, "# a note"), (4000, ""), (7000, "#")):
        lines.insert(i, extra)
    read = []
    reader = fio.csv.reader

    def counted(*args, **kwargs):
        for row in reader(*args, **kwargs):
            read.append(row)
            yield row

    def checked(path):
        """`ingest_csv(path)`'s outcome, once no row after the header reached the csv module."""
        read.clear()
        with mock.patch.object(fio.csv, "reader", counted):
            got = outcome(ingest_csv, path)
        assert read == [list(SERIES_COLUMNS)]
        return got

    for end in ("\r\n", "\r"):
        p.write_bytes((end.join(lines) + end).encode())
        expected = outcome(oracle_ingest_csv, p)
        assert through_a_pipe(checked, p) == expected, end
        for sizes in every_size():
            assert checked(p) == expected, (end, sizes)


@needs_pipes
def test_a_quoted_row_sends_only_its_chunk_to_the_csv_module(tmp_path):
    """The chunks after one that holds a quoted cell are split as plain text again."""
    lines = (HEADER + plain_rows(PLAIN)).splitlines(keepends=True)
    lines[1] = lines[1].replace("n1", '"n1"')
    p = tmp_path / "data.csv"
    p.write_text("".join(lines))
    expected = outcome(oracle_ingest_csv, p)
    assert not isinstance(expected, str)
    shortest = min(map(len, lines[1:]))
    read = []
    reader = fio.csv.reader

    def counted(*args, **kwargs):
        for row in reader(*args, **kwargs):
            read.append(row)
            yield row

    def checked(path):
        """`ingest_csv(path)`'s outcome, once only rows of one chunk reached the csv module."""
        read.clear()
        with mock.patch.object(fio.csv, "reader", counted):
            got = outcome(ingest_csv, path)
        assert read[:2] == [list(SERIES_COLUMNS), ["0", "n1", "box_temp", "0"]]
        assert len(read) - 1 <= fio._CHUNK // shortest + 1
        return got

    assert through_a_pipe(checked, p) == expected
    for sizes in every_size():
        assert checked(p) == expected, sizes


def test_rows_before_undecodable_bytes_are_checked_first(tmp_path):
    """A bad row is reported before undecodable bytes after it, also when
    both are close to where the first chunk read ends."""
    body = (HEADER + plain_rows(3000)).encode()
    end = len(HEADER) + fio._CHUNK  # where the first chunk read ends in an ASCII file
    window = end // 8192 * 8192
    body += b"#" * (window - len(body) - 1) + b"\n"
    body += b"x,n1,box_temp,1\n"
    assert len(body) <= end < len(body) + 40
    p = tmp_path / "data.csv"
    p.write_bytes(body + b"#" * 40 + b"\xff\n" + plain_rows(9).encode())
    expected = outcome(oracle_ingest_csv, p)
    assert expected.endswith("data.csv:3003: malformed row")
    for sizes in every_size():
        assert outcome(ingest_csv, p) == expected, sizes


@needs_pipes
@pytest.mark.parametrize("tail, message", [
    ("x,n1,box_temp,1\n", "malformed row"),
    ("0,n1,box_\udcff,1\n" + plain_rows(3), "not text in the expected encoding"),
], ids=["bad-row", "bad-bytes"])
def test_a_named_pipe_is_read_as_a_file_is(tmp_path, tail, message):
    """A named pipe cannot seek, and is read by the same chunk loop, the csv
    module taking over at the first quoted row, with the same result."""
    p = tmp_path / "data.csv"
    p.write_bytes((HEADER + plain_rows(PLAIN) + plain_rows(4, '"n,2"') + tail)
                  .encode(errors="surrogateescape"))
    expected = outcome(oracle_ingest_csv, p)
    assert expected.endswith(f"data.csv:{PLAIN + 6}: {message}")
    for sizes in every_size():
        assert through_a_pipe(partial(outcome, ingest_csv), p) == \
            expected.replace("data.csv", "pipe.csv"), sizes


NODE_IDS = st.sampled_from(["n1", "a,b", 'say "hi"', " lead", "line\nbreak", "cr\r", "#x", "é"])


@settings(max_examples=100, deadline=None)
@given(series=st.lists(st.builds(
    Series, NODE_IDS, st.sampled_from(list(Modality)),
    st.sampled_from([0.0, -0.0, 600.0, 0.5, -1200.25, 1743465600.0, 1e19,
                     2.0**63 - 2048, 2.0**63, -2.0**63]),
    st.sampled_from([600.0, 0.5, 1.0 / 3.0, 86400.0]),
    st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 5e-324, 1e308, 0.1])), max_size=9)), max_size=3))
def test_series_writer_matches_the_csv_module(tmp_path_factory, series):
    d = tmp_path_factory.mktemp("write")
    oracle_write_series_csv(d / "oracle.csv", series)
    for size in BLOCK_SIZES:
        with mock.patch.object(fio, "_BLOCK", size):
            write_series_csv(d / "blocks.csv", series)
        assert (d / "blocks.csv").read_bytes() == (d / "oracle.csv").read_bytes()


def traced_peak(fn, *args) -> float:
    """Peak traced allocation in MB while `fn(*args)` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_io_memory_grows_with_the_arrays_not_the_text(tmp_path):
    rng = np.random.default_rng(3)
    series = [Series(f"n{i}", Modality.SOIL_MOISTURE, 1743465600.0, 600.0,
                     rng.normal(0.2, 0.01, size=25_000)) for i in range(4)]
    p = tmp_path / "big.csv"
    write_series_csv(p, series)
    # Whole-file columns peak at about 43 MB on these 100k rows and the row
    # reader at about 9 MB.
    assert traced_peak(ingest_csv, p) <= 12.0
    assert traced_peak(write_series_csv, tmp_path / "w.csv", series) <= \
        traced_peak(oracle_write_series_csv, tmp_path / "o.csv", series)


def test_csv_module_rows_are_passed_on_a_chunk_of_text_at_a_time(tmp_path):
    # A quoted 2,000-character fifth column sends every row to the csv
    # module. Passed on 4,096 rows at a time, these rows peaked at about
    # 9.9 MB; once they hold a chunk of text, at about 0.8 MB.
    note = '"' + "x" * 2000 + '"'
    p = tmp_path / "wide.csv"
    p.write_text(HEADER[:-1] + ",note\n"
                 + "".join(f"{k * 600},n1,box_temp,{k % 7},{note}\n" for k in range(4500)))
    assert traced_peak(ingest_csv, p) <= 2.0


def test_interleaved_ingest_memory_grows_with_the_arrays(tmp_path):
    # Every row another series, so every block holds every series. Holding
    # a group column and regrouping the whole file after reading it peaked
    # at about 19 MB here; grouping each block as it is read, at about 12 MB.
    n, nodes = 75_000, 4
    p = write(tmp_path, interleaved_rows(n, nodes))
    arrays_mb = n * nodes * 16 / 1e6  # a float64 time and value per row
    assert traced_peak(ingest_csv, p) <= 3 * arrays_mb


@pytest.mark.parametrize("holes", [False, True], ids=["gap-free", "holes-and-a-split"])
def test_repair_memory_is_a_few_copies_of_its_input(holes):
    n = 200_000
    keep = np.ones(n, bool)
    if holes:  # 2 % of the samples missing one at a time, and a 10-sample gap that splits
        keep[::50] = False
        keep[n // 2:n // 2 + 10] = False
    t = (T0 + 600.0 * np.arange(n))[keep]
    v = np.random.default_rng(4).normal(0.2, 0.01, n)[keep]
    # Gathering each output sample from its source index peaked at about 4.8x the input.
    peak = traced_peak(fio._repair_group, ("n1", "box_temp"), t, v, IngestReport(series=[]))
    assert peak <= 3.5 * (t.nbytes + v.nbytes) / 1e6
    # Expanding the dominant spacing's run lengths for np.median peaked at
    # 1.37x the input gap-free; read from their cumulative sums, about 0.63x.
    assert traced_peak(fio._nominal_interval, np.diff(t)) <= (t.nbytes + v.nbytes) / 1e6


def repair_outcome(repair, t, v):
    """What a repair of one group gives, in comparable form (see `outcome`)."""
    report = IngestReport(series=[])
    try:
        series = repair(("n1", "box_temp"), t, v, report)
    except DataError as exc:
        return str(exc)
    return ([(s.start_time, s.sample_interval, s.values.tobytes()) for s in series],
            report.filled, report.splits)


# Mostly single steps, so the grid has a dominant spacing. A step of 2-4 grid
# points is interpolated; one of 5-9 splits the series.
SAMPLES = st.tuples(st.sampled_from([1] * 5 + [2, 3, 4, 5, 9]),
                    st.one_of(st.just(0.0), st.floats(-0.005, 0.005)),
                    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 299)))


@settings(max_examples=300, deadline=None)
@given(interval=st.sampled_from([600.0, 1.0, 0.25, 86400.0]),
       samples=st.lists(SAMPLES, max_size=40))
def test_repair_matches_the_oracle_on_arrays(interval, samples):
    steps, jitter, values = np.array(samples).reshape(-1, 3).T
    t = T0 + interval * (np.cumsum(steps) + jitter)  # each stamp off its grid point by < 0.5 %
    assert repair_outcome(fio._repair_group, t, values) == \
        repair_outcome(oracle_repair_group, t, values)


def oracle_read_series(path, node, modality, neighbors):
    """`read_series` by hand: each request filters `ingest_csv(path).series`."""
    series = ingest_csv(path).series

    def pick(node, modality):
        nodes = sorted({s.node_id for s in series})
        if node is None and len(nodes) > 1:
            raise ConfigError(f"{path} holds nodes {nodes}; pick one with --node")
        node = nodes[0] if node is None else node
        pieces = [s for s in series if s.node_id == node and modality in (None, s.modality)]
        if not pieces:
            raise DataError(f"{path}: no series for node {node!r}"
                            + (f" modality {modality.value!r}" if modality else ""))
        if len({s.modality for s in pieces}) > 1:
            raise ConfigError(f"{path} node {node!r} holds several modalities; "
                              f"pick one with --modality")
        if len(pieces) > 1:
            raise DataError(f"{path}: series for node {node!r} is split by long gaps")
        return pieces[0]

    target = pick(node, modality)
    if neighbors is None:
        neighbors = sorted({s.node_id for s in series if s.modality == target.modality}
                           - {target.node_id})
    return target, [pick(other, target.modality) for other in neighbors]


def selection(fn, *args):
    """The series `fn(*args)` returns, or the class and text of its error."""
    try:
        target, neighbors = fn(*args)
    except (ConfigError, DataError) as exc:
        return type(exc), str(exc)
    return [(s.node_id, s.modality, s.start_time, s.sample_interval, s.values.tolist())
            for s in (target, *neighbors)]


SELECT_NODES = ["n1", "n2", "n3"]


@st.composite
def sensor_files(draw):
    """A series CSV of 1-3 nodes x 1-2 modalities, 12 samples a series, some
    split in two by a gap longer than MAX_INTERPOLATED_RUN."""
    keys = draw(st.lists(st.tuples(st.sampled_from(SELECT_NODES), st.sampled_from(list(Modality))),
                         min_size=1, max_size=6, unique=True))
    rows = []
    for node, modality in keys:
        steps = list(range(12))
        if draw(st.booleans()):
            cut = draw(st.integers(1, 6))
            del steps[cut:cut + MAX_INTERPOLATED_RUN + 1]
        rows += [f"{k * 600},{node},{modality.value},{len(rows) + k}\n" for k in steps]
    return HEADER + "".join(rows)


@settings(max_examples=300, deadline=None)
@given(text=sensor_files(),
       node=st.sampled_from([None, *SELECT_NODES, "zz"]),
       modality=st.sampled_from([None, *Modality]),
       neighbors=st.one_of(st.none(), st.lists(st.sampled_from([*SELECT_NODES, "zz"]),
                                               max_size=3)))
def test_read_series_matches_filtering_the_ingest_by_hand(tmp_path_factory, text, node,
                                                        modality, neighbors):
    path = str(tmp_path_factory.mktemp("select") / "s.csv")
    Path(path).write_text(text)
    assert selection(read_series, path, node, modality, neighbors) == \
        selection(oracle_read_series, path, node, modality, neighbors)


def test_only_read_series_reads_a_sensor_csv():
    """Every command picks its series out of a sensor CSV through `io.read_series`:
    no other function of the package names `ingest_csv`."""
    users = set()
    for path in Path(fio.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == "ingest_csv"
                        or isinstance(node, ast.Attribute) and node.attr == "ingest_csv"):
                    users.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert users == {"io.read_series"}
