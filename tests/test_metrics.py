"""Event-misclassification and false-negative metrics plus report round-trips."""

import json
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from faultlab import (
    ConfigError,
    DataError,
    DetectionResult,
    EventWindow,
    GroundTruthLabels,
    Modality,
    Series,
    assemble_report,
    event_sample_indices,
)
from faultlab.events import FIRST_HALF_HOUR_S, event_ranges
from faultlab.inject import InjectionPlan, labels_from_dict, labels_to_dict
from faultlab.io import write_json
from faultlab.metrics import (REPORT_FORMAT_VERSION, EvalReport, PerEventStat, load_report,
                              report_from_dict, report_to_dict, save_report)


def mk(n, interval=600.0, start=0.0):
    return Series("n1", Modality.BOX_TEMP, start, interval, np.zeros(n))


def flags(samples=(), windows=()):
    """Flagged samples plus every sample of each (start, length) window as one
    detector's result."""
    expanded = [i for start, length in windows for i in range(start, start + length)]
    return DetectionResult("noise" if windows else "short", [*samples, *expanded])


def mu_of(s, events, samples=(), windows=()):
    return assemble_report(s, flags(samples, windows), events).mu


def fn_report(truth, kind, samples=(), windows=()):
    return assemble_report(mk(1000), flags(samples, windows), [], truth=truth, kind=kind)


def test_mu_samples_basics():
    s = mk(300)
    events = [EventWindow(100 * 600.0, 200 * 600.0)]
    assert mu_of(s, events) == 0.0
    assert mu_of(s, events, range(300)) == 1.0
    assert mu_of(s, events, range(100, 145)) == 0.45
    assert mu_of(s, [], [1, 2]) is None


def test_mu_samples_monotone_in_flags():
    rng = np.random.default_rng(101)
    s = mk(500)
    events = [EventWindow(600.0 * a, 600.0 * (a + 16)) for a in range(0, 500, 100)]
    flagged = set()
    last = 0.0
    for _ in range(30):
        flagged |= set(rng.choice(500, size=10).tolist())
        cur = mu_of(s, events, sorted(flagged))
        assert cur >= last
        last = cur


def test_mu_duration_examples():
    s = mk(200)
    events = [EventWindow(0.0, 18 * 600.0)]
    assert mu_of(s, events, windows=[]) == 0.0
    assert mu_of(s, events, windows=[(0, 18)]) == 1.0

    two = [EventWindow(0.0, 30 * 600.0), EventWindow(60 * 600.0, 80 * 600.0)]
    # one flagged window covers 12 samples of the first event only
    assert mu_of(s, two, windows=[(10, 12)]) == (12 + 0) / (30 + 20)


def test_mu_duration_errors():
    s = mk(50)
    assert mu_of(s, [], windows=[(0, 5)]) is None
    with pytest.raises(DataError):
        mu_of(s, [EventWindow(0.0, 600.0)], windows=[(48, 5)])
    # an event entirely outside the series carries no samples
    assert mu_of(s, [EventWindow(1e6, 2e6)]) is None


def test_mu_duration_equals_sample_oracle():
    rng = np.random.default_rng(103)
    for _ in range(50):
        n = int(rng.integers(40, 400))
        s = mk(n)
        cursor, events = 0.0, []
        for _ in range(int(rng.integers(1, 6))):
            start = cursor + float(rng.integers(0, 20)) * 600.0
            end = start + float(rng.integers(1, 30)) * 600.0
            events.append(EventWindow(start, end))
            cursor = end
        windows, cur = [], 0
        while cur < n - 2 and len(windows) < 6:
            st = cur + int(rng.integers(0, 25))
            ln = int(rng.integers(1, 20))
            if st + ln > n:
                break
            windows.append((st, ln))
            cur = st + ln
        ev_idx = event_sample_indices(s, events)
        if ev_idx.size == 0:
            continue
        flag_idx = [i for st, ln in windows for i in range(st, st + ln)]
        mu = mu_of(s, events, windows=windows)
        assert mu == mu_of(s, events, flag_idx)
        assert mu == np.isin(ev_idx, flag_idx).sum() / ev_idx.size


def test_false_negative_ratio_short():
    truth = GroundTruthLabels(short_indices=tuple(range(10)))
    assert fn_report(truth, "short", range(20)).false_negative_ratio == 0.0
    assert fn_report(truth, "short").false_negative_ratio == 1.0
    assert fn_report(truth, "short", range(5)).false_negative_ratio == 0.5


def test_false_negative_ratio_noise_per_burst():
    truth = GroundTruthLabels(noise_windows=tuple((k * 100, 20) for k in range(8)))
    # flags overlap bursts 0..3 by one sample each
    rep = fn_report(truth, "noise", windows=[(k * 100 + 19, 1) for k in range(4)])
    assert rep.false_negative_ratio == 0.5
    assert rep.noise_fn_per_sample == (160 - 4) / 160


def test_false_negative_ratio_errors():
    with pytest.raises(ConfigError):
        fn_report(GroundTruthLabels(short_indices=(1,)), "mystery")
    for kind in ("short", "noise"):
        rep = fn_report(GroundTruthLabels(), kind)
        assert rep.false_negative_ratio is None and rep.noise_fn_per_sample is None


def test_assemble_report_zero_flags_zero_truth():
    s = mk(100)
    events = [EventWindow(0.0, 6000.0)]
    rep = assemble_report(s, DetectionResult("short"), events,
                          truth=GroundTruthLabels(), parameters={"delta": 5.0})
    assert rep.mu == 0.0
    assert rep.false_negative_ratio is None
    assert rep.parameters == {"delta": 5.0}
    doc = report_to_dict(rep)
    assert "false_negative_ratio" not in doc  # undefined metrics stay absent
    assert doc["mu"] == 0.0


def test_assemble_report_per_event_sums_reproduce_mu():
    rng = np.random.default_rng(107)
    s = mk(500)
    events = [EventWindow(600.0 * 10, 600.0 * 40), EventWindow(600.0 * 100, 600.0 * 130)]
    flags = tuple(int(i) for i in rng.choice(500, size=60, replace=False))
    rep = assemble_report(s, DetectionResult("short", flagged_samples=flags), events)
    num = sum(st.misclassified for st in rep.per_event)
    den = sum(st.samples for st in rep.per_event)
    assert rep.mu == num / den
    assert all(st.opening_samples == 3 for st in rep.per_event)  # 30 min @600 s
    assert rep.mu_first_half_hour is not None


def test_assemble_report_kind_inference():
    s = mk(300)
    events = [EventWindow(0.0, 600.0 * 10)]
    short_truth = GroundTruthLabels(short_indices=(5, 10))
    rep = assemble_report(s, DetectionResult("short", flagged_samples=(5,)),
                          events, truth=short_truth)
    assert rep.fault_kind == "short"
    assert rep.false_negative_ratio == 0.5

    noise_truth = GroundTruthLabels(noise_windows=((50, 10),))
    rep2 = assemble_report(s, DetectionResult("noise", range(50, 60)),
                           events, truth=noise_truth)
    assert rep2.fault_kind == "noise"
    assert rep2.false_negative_ratio == 0.0
    assert rep2.noise_fn_per_sample == 0.0

    both = GroundTruthLabels(short_indices=(5,), noise_windows=((50, 10),))
    with pytest.raises(ConfigError):
        assemble_report(s, DetectionResult("short"), events, truth=both)
    rep3 = assemble_report(s, DetectionResult("short", flagged_samples=(5,)),
                           events, truth=both, kind="short")
    assert rep3.false_negative_ratio == 0.0


def test_assemble_report_no_events_mu_absent():
    s = mk(100)
    rep = assemble_report(s, DetectionResult("short", flagged_samples=(3,)), [])
    assert rep.mu is None and rep.mu_first_half_hour is None
    doc = report_to_dict(rep)
    assert "mu" not in doc and "mu_first_half_hour" not in doc


def test_report_round_trip(tmp_path):
    s = mk(200)
    events = [EventWindow(0.0, 600.0 * 20)]
    truth = GroundTruthLabels(short_indices=(4, 8, 15))
    rep = assemble_report(s, DetectionResult("short", flagged_samples=(4, 16, 23)),
                          events, truth=truth, parameters={"delta": 2.5, "seed": 7})
    again = report_from_dict(report_to_dict(rep))
    assert again == rep
    p = tmp_path / "report.json"
    save_report(p, rep)
    assert load_report(p) == rep


def test_report_from_dict_rejects_bad_documents():
    with pytest.raises(DataError):
        report_from_dict({"version": 2})
    with pytest.raises(DataError):
        report_from_dict({"version": 1, "per_event": [{"bogus": 1}]})
    with pytest.raises(DataError):
        report_from_dict("not a dict")
    # `parameters` must be a JSON object and `per_event` a list, not whatever
    # dict() or tuple() happens to accept.
    for parameters in ("xy", [[1]], [["a", 1]], 3):
        with pytest.raises(DataError, match="malformed report document"):
            report_from_dict({"version": 1, "parameters": parameters})
    for per_event in ({}, "xy", 3):
        with pytest.raises(DataError, match="malformed report document"):
            report_from_dict({"version": 1, "per_event": per_event})
    # Values are checked as in labels and model files: metrics are JSON
    # numbers or absent, per-event counts JSON integers under exactly the
    # five names, and no other key is allowed.
    stat = {"event_index": 0, "samples": 4, "misclassified": 1, "opening_samples": 2,
            "opening_misclassified": 1}
    for bad in ({"mu": "abc", "per_event": [{"event_index": "x", "samples": None,
                                            "misclassified": [], "opening_samples": 1,
                                            "opening_misclassified": 2}]},
                {"mu": True}, {"mu": float("nan")}, {"noise_fn_per_sample": "0.5"},
                {"false_negative_ratio": [0.5]}, {"fault_kind": 7}, {"fault_kind": "none"},
                {"flags": []}, {"per_event": [stat | {"samples": None}]},
                {"per_event": [stat | {"samples": 4.0}]}, {"per_event": [stat | {"samples": True}]},
                {"per_event": [stat | {"extra": 1}]},
                {"per_event": [{k: v for k, v in stat.items() if k != "samples"}]},
                {"per_event": [[0, 4, 1, 2, 1]]}):
        with pytest.raises(DataError):
            report_from_dict({"version": 1} | bad)
    report = report_from_dict({"version": 1, "mu": 0.25, "mu_first_half_hour": None,
                               "fault_kind": "short", "per_event": [stat]})
    assert report.mu == 0.25 and report.false_negative_ratio is None
    assert report.per_event == (PerEventStat(0, 4, 1, 2, 1),)


def asdict_report_to_dict(report: EvalReport) -> dict:
    """The former `report_to_dict`, through `dataclasses.asdict`: the oracle."""
    doc = {key: value for key, value in asdict(report).items() if value is not None}
    return {"version": REPORT_FORMAT_VERSION} | doc


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=5)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                               max_size=3),
    max_leaves=12)
counts = st.integers(0, 10**6) | st.sampled_from([-1, 2**63 - 1])
maybe_ratio = st.none() | st.floats(0, 1) | st.sampled_from([1e-300, -0.0, 1e16, 5e-324])
reports = st.builds(
    EvalReport,
    mu=maybe_ratio, mu_first_half_hour=maybe_ratio, false_negative_ratio=maybe_ratio,
    per_event=st.lists(st.builds(PerEventStat, counts, counts, counts, counts, counts),
                       max_size=4).map(tuple),
    parameters=st.one_of(
        st.fixed_dictionaries({"detector": st.sampled_from(["short", "noise"]),
                               "param": st.floats(0, 100), "seed": st.integers(0, 2**32),
                               "modality": st.sampled_from(["box_temp", "soil_moisture"])}),
        st.fixed_dictionaries({"command": st.just("evaluate"),
                               "site": st.sampled_from(["Zürich", "雨量計", "a\nb\"c"]),
                               "config": st.dictionaries(st.text(max_size=5), json_values,
                                                         max_size=4)}),
        st.just({})),
    fault_kind=st.sampled_from([None, "short", "noise"]),
    noise_fn_per_sample=maybe_ratio)


@settings(max_examples=300, deadline=None)
@given(reports)
def test_report_to_dict_matches_asdict(tmp_path_factory, report):
    doc, expected = report_to_dict(report), asdict_report_to_dict(report)
    # The one intended difference: per_event is a list, as a parsed file holds it.
    expected["per_event"] = list(expected["per_event"])
    assert doc == expected and list(doc) == list(expected)
    assert all(type(row) is dict for row in doc["per_event"])
    tmp = tmp_path_factory.getbasetemp()
    save_report(tmp / "new.json", report)
    write_json(tmp / "old.json", asdict_report_to_dict(report))
    assert (tmp / "new.json").read_bytes() == (tmp / "old.json").read_bytes()
    assert report_from_dict(doc) == report
    assert load_report(tmp / "new.json") == report


# Counts json.dumps writes otherwise than an int (a bool, a float) or refuses
# (numpy's int64), next to plain ints.
odd_counts = st.integers(0, 9) | st.booleans() | st.floats() | st.integers(0, 9).map(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.builds(PerEventStat, odd_counts, odd_counts, odd_counts, odd_counts,
                          odd_counts), max_size=3))
def test_report_writer_follows_json_on_counts_of_other_types(tmp_path_factory, per_event):
    report = EvalReport(0.5, None, None, tuple(per_event), {"seed": 1})
    path = tmp_path_factory.getbasetemp() / "odd.json"
    try:
        expected = json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            save_report(path, report)
    else:
        save_report(path, report)
        assert path.read_text() == expected


# --------------------- the former tuple labels and mask scoring, as oracle

@dataclass(frozen=True)
class TupleLabels:
    """GroundTruthLabels as it was: sorted tuples of Python ints."""

    short_indices: tuple[int, ...] = ()
    noise_windows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.short_indices))
        if any(i < 0 for i in idx):
            raise DataError("short fault indices must be >= 0")
        if len(set(idx)) != len(idx):
            raise DataError("short fault indices must be distinct")
        wins = tuple(sorted((int(s), int(n)) for s, n in self.noise_windows))
        for s, n in wins:
            if s < 0 or n <= 0:
                raise DataError(f"noise burst ({s}, {n}) must have start >= 0 and length > 0")
        for (s1, n1), (s2, _) in zip(wins, wins[1:]):
            if s2 < s1 + n1:
                raise DataError("noise bursts must not overlap")
        object.__setattr__(self, "short_indices", idx)
        object.__setattr__(self, "noise_windows", wins)


def tuple_labels_to_dict(labels: TupleLabels, plan: InjectionPlan) -> dict:
    """The former `labels_to_dict`, over tuples of Python ints."""
    return {
        "short": [int(i) for i in labels.short_indices],
        "noise": [{"start": int(s), "len": int(ln)} for s, ln in labels.noise_windows],
        "seed": plan.seed,
        "plan": asdict(plan) | {"noise_burst_lengths": list(plan.noise_burst_lengths)},
    }


def mask_report(s, flag_idx, events, truth, kind, parameters) -> EvalReport:
    """The former `assemble_report` body: one n-long mask of the flags and its
    (n+1)-long prefix sum c, so range [lo, hi) holds c[hi] - c[lo]."""
    ordered = sorted(events, key=lambda e: e.start)
    flagged = np.zeros(len(s), dtype=bool)
    flagged[flag_idx] = True
    c = np.zeros(len(s) + 1, dtype=np.int64)
    np.cumsum(flagged, out=c[1:])
    t = s.times()
    lo, hi = event_ranges(t, ordered)
    _, op_hi = event_ranges(t, ordered, FIRST_HALF_HOUR_S)
    counts = zip((hi - lo).tolist(), (c[hi] - c[lo]).tolist(),
                 (op_hi - lo).tolist(), (c[op_hi] - c[lo]).tolist())
    stats = tuple(PerEventStat(i, *row) for i, row in enumerate(counts))
    total = sum(st.samples for st in stats)
    hit = sum(st.misclassified for st in stats)
    op_total = sum(st.opening_samples for st in stats)
    op_hit = sum(st.opening_misclassified for st in stats)
    fn = per_sample = resolved_kind = None
    if truth is not None:
        resolved_kind = kind
        if kind is None:
            if truth.short_indices and truth.noise_windows:
                raise ConfigError("labels hold both fault kinds")
            resolved_kind = ("short" if truth.short_indices
                             else "noise" if truth.noise_windows else None)
        if resolved_kind == "short" and truth.short_indices:
            missed = int(np.count_nonzero(~flagged[list(truth.short_indices)]))
            fn = missed / len(truth.short_indices)
        elif resolved_kind == "noise" and truth.noise_windows:
            start, length = np.array(truth.noise_windows, dtype=np.int64).T
            inside = c[start + length] - c[start]
            fn = int(np.count_nonzero(inside == 0)) / len(truth.noise_windows)
            burst_samples = int(length.sum())
            per_sample = (burst_samples - int(inside.sum())) / burst_samples
    return EvalReport(mu=hit / total if total else None,
                      mu_first_half_hour=op_hit / op_total if op_total else None,
                      false_negative_ratio=fn, per_event=stats, parameters=dict(parameters),
                      fault_kind=resolved_kind, noise_fn_per_sample=per_sample)


def index_sets(n):
    """Sets of sample indices below n: empty, every sample, both ends (with
    or without others), or drawn."""
    ends = st.sets(st.integers(0, n - 1)).map(lambda s: s | {0, n - 1})
    return st.one_of(st.just(set()), st.just(set(range(n))), ends,
                     st.sets(st.integers(0, n - 1)))


@st.composite
def scoring_inputs(draw):
    """(series, flags, events, short labels, noise bursts, kind) for one report.

    Spike labels come in drawn order, as `inject_short` passes them; bursts
    may start at sample 0 and end on the last sample.
    """
    n = draw(st.integers(1, 40))
    flag_idx = sorted(draw(index_sets(n)))
    events, cursor = [], draw(st.sampled_from([-1200.0, 0.0]))
    for _ in range(draw(st.integers(0, 3))):
        start = cursor + draw(st.integers(0, 10)) * 600.0 + draw(st.sampled_from([0.0, 300.0]))
        cursor = start + draw(st.integers(1, 15)) * 600.0
        events.append(EventWindow(start, cursor))
    labels = draw(st.sampled_from(["none", "short", "noise", "both"]))
    short, bursts = [], []
    if labels in ("short", "both"):
        short = draw(st.permutations(sorted(draw(index_sets(n)))))
    if labels in ("noise", "both"):
        at = draw(st.integers(0, n - 1))
        while at < n:
            length = draw(st.integers(1, n - at))
            bursts.append((at, length))
            at += length + draw(st.integers(1, n))
    kind = draw(st.sampled_from([None, "short", "noise"]))
    return mk(n), flag_idx, events, labels != "none", short, bursts, kind


@settings(max_examples=400, deadline=None)
@given(scoring_inputs())
def test_search_scoring_matches_the_mask_oracle(run):
    s, flag_idx, events, labeled, short, bursts, kind = run
    truth = GroundTruthLabels(short_indices=short, noise_windows=bursts) if labeled else None
    old = TupleLabels(short, bursts) if labeled else None
    result = DetectionResult("short", flag_idx)
    params = {"detector": "short"}
    if labeled:
        plan = InjectionPlan(seed=3)
        doc = labels_to_dict(truth, plan)
        assert doc == tuple_labels_to_dict(old, plan)
        assert json.dumps(doc) == json.dumps(tuple_labels_to_dict(old, plan))
        assert truth.short_indices.tolist() == list(old.short_indices)
        assert labels_from_dict(doc).short_indices.tolist() == list(old.short_indices)
        assert truth.noise_windows == old.noise_windows
    if labeled and short and bursts and kind is None:
        with pytest.raises(ConfigError, match="--fault-kind"):
            assemble_report(s, result, events, truth, kind, params)
        with pytest.raises(ConfigError):
            mask_report(s, result.flagged_samples, events, old, kind, params)
        return
    assert report_to_dict(assemble_report(s, result, events, truth, kind, params)) == \
        report_to_dict(mask_report(s, result.flagged_samples, events, old, kind, params))
