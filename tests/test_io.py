"""CSV ingestion (grid repair, splitting) and the file formats round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultlab import ConfigError, DataError, EventWindow, Modality, PrecipRecord, Series
from faultlab.io import (
    ingest_csv,
    json_fields,
    json_number,
    parse_timestamp,
    format_timestamp,
    read_detection_csv,
    read_events_csv,
    read_precip_csv,
    write_detection_csv,
    write_events_csv,
    write_series_csv,
)

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
        parse_timestamp(bad)


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
    assert parse_timestamp("600") == 600.0
    assert parse_timestamp("1970-01-01T00:10:00Z") == 600.0
    assert parse_timestamp("1970-01-01T00:10:00+00:00") == 600.0
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
    write_detection_csv(p, [(7, "short"), (3, "short"), (3, "noise"), (10, "llse")])
    text = p.read_text()
    assert text.splitlines()[0] == "index,flag_source"
    out = read_detection_csv(p)
    assert out["short"].tolist() == [3, 7]
    assert out["noise"].tolist() == [3]
    assert out["llse"].tolist() == [10]

    bad = tmp_path / "bad.csv"
    bad.write_text("index,flag_source\n1,bogus\n")
    with pytest.raises(DataError, match="flag_source"):
        read_detection_csv(bad)


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
    with pytest.raises(DataError, match="bytes.csv"):
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
