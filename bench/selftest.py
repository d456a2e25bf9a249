"""Self-test of the benchmark's checks: each must reject a perturbed result.

    python3 bench/selftest.py

For every workload it runs one real pass, confirms that the checks accept
it, then perturbs one output at a time (a value moved by one ulp, a flag
added or dropped, a count off by one, a planted storm moved) and confirms
that the checks reject it. Exits 1 if any perturbation goes unnoticed.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import oracle  # noqa: E402
from oracle import Mismatch  # noqa: E402
from run import tree_hashes  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402


def ulp(x: float) -> float:
    return float(np.nextafter(x, np.inf))


def next_float(cell: str) -> str:
    return repr(ulp(float(cell)))


def csv_cell(row: int, col: int, change):
    """Perturb one cell of a CSV text (row 0 is the header)."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[col] = change(cells[col])
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return edit


def json_key(change):
    def edit(text: str) -> str:
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return edit


def drop_line(row: int):
    def edit(text: str) -> str:
        lines = text.split("\n")
        del lines[row]
        return "\n".join(lines)
    return edit


def add_flag(source: str):
    def edit(text: str) -> str:
        lines = [ln for ln in text.split("\n") if ln]
        taken = {int(ln.split(",")[0]) for ln in lines[1:]}
        free = next(i for i in range(1, 10**7) if i not in taken)
        return "\n".join(lines + [f"{free},{source}"]) + "\n"
    return edit


def bump(doc, *path):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = ulp(doc[path[-1]]) if isinstance(doc[path[-1]], float) \
        else doc[path[-1]] + 1


def bump_rel(doc: dict, key: str, rel: float) -> None:
    doc[key] *= 1 + rel


FILE_CASES = {
    "study-sweep": [
        ("sweep_short/sweep.csv", "short mu +1 ulp", csv_cell(3, 1, next_float)),
        ("sweep_short/sweep.csv", "short fn_ratio +1 ulp", csv_cell(2, 3, next_float)),
        ("sweep_noise/sweep.csv", "noise row dropped", drop_line(5)),
        ("sweep_noise/sweep.csv", "noise mu_first_half_hour +1 ulp",
         csv_cell(1, 2, next_float)),
        ("trio/model.json", "llse beta1 off by 1e-8",
         json_key(lambda d: bump_rel(d["neighbors"][0], "beta1", 1e-8))),
        ("trio/flags.csv", "llse flag added", add_flag("llse")),
        ("trio/report.json", "llse per-event count +1",
         json_key(lambda d: bump(d, "per_event", 0, "samples"))),
    ],
    "cli-walkthrough": [
        ("short/faulted.csv", "faulted value +1 ulp", csv_cell(
            5, 3, next_float)),
        ("noise/model.json", "sigma_train off by 1e-9",
         json_key(lambda d: bump_rel(d, "sigma_train", 1e-9))),
        ("short/flags.csv", "short flag dropped", drop_line(1)),
        ("noise/flags.csv", "noise flag added", add_flag("noise")),
        ("short/report.json", "short fn ratio +1 ulp",
         json_key(lambda d: bump(d, "false_negative_ratio"))),
        ("noise/report.json", "noise mu +1 ulp", json_key(lambda d: bump(d, "mu"))),
        ("llse/flags.csv", "llse flag dropped", drop_line(1)),
        ("llse/report.json", "llse misclassified +1",
         json_key(lambda d: bump(d, "per_event", 1, "misclassified"))),
        ("sweep/sweep.csv", "sweep mu +1 ulp", csv_cell(2, 1, next_float)),
        ("noise/faulted.labels.json", "burst label moved",
         json_key(lambda d: bump(d, "noise", 0, "start"))),
    ],
    "field-ingest": [
        ("events.csv", "events.csv window end moved",
         csv_cell(2, 1, lambda c: str(int(c) + 900))),
        ("inject/faulted.csv", "faulted value +1 ulp", csv_cell(
            7, 3, next_float)),
        ("model/model.json", "noise spread off by 1e-9",
         json_key(lambda d: bump_rel(d, "sigma_hist_spread", 1e-9))),
        ("sweep/sweep.csv", "sweep fn_ratio +1 ulp",
         csv_cell(4, 3, next_float)),
    ],
}


def result_cases(ops: Ops):
    """Perturbations of the field-ingest results held in memory."""
    from faultlab.series import EventWindow

    def piece_value(results):
        rep = results["test"]
        s = rep.series[0]
        v = s.values.copy()
        v[100] = ulp(v[100])
        rep.series[0] = s.with_values(v)

    def filled(results):
        key = next(iter(results["train"].filled))
        results["train"].filled[key] += 1

    def splits(results):
        key = next(iter(results["test"].splits))
        results["test"].splits[key] -= 1

    def storm(results):
        ev = results["events"][3]
        results["events"][3] = EventWindow(ev.start, ev.end + 900.0)

    return [("repaired value +1 ulp", piece_value), ("filled count +1", filled),
            ("split count -1", splits), ("derived storm moved", storm)]


def rejects(wl, ops) -> bool:
    try:
        wl.check(ops)
    except Mismatch:
        return True
    return False


def main() -> int:
    work = ROOT / ".bench_out" / "selftest"
    missed = 0
    try:
        for name, cls in WORKLOADS.items():
            shutil.rmtree(work, ignore_errors=True)
            wl = cls(work, 1)
            wl.out.mkdir(parents=True)
            wl.make_inputs()
            ops = Ops()
            wl.run_pass(ops)
            wl.prepare()
            wl.check(ops)
            print(f"{name}: the unperturbed pass passes")
            reference = tree_hashes(wl.out)
            for rel, what, edit in FILE_CASES[name]:
                path = wl.out / rel
                original = path.read_text()
                path.write_text(edit(original))
                caught = rejects(wl, ops) and tree_hashes(wl.out) != reference
                path.write_text(original)
                missed += not caught
                print(f"  {'rejected' if caught else 'MISSED  '}  {what}")
            if name == "field-ingest":
                for what, change in result_cases(ops):
                    saved = Ops()
                    wl.run_pass(saved)
                    change(saved.results)
                    caught = rejects(wl, saved)
                    missed += not caught
                    print(f"  {'rejected' if caught else 'MISSED  '}  {what}")
        for rows, what in (([(1.0, 0.5, 0.5, 0.1), (2.0, 0.6, 0.5, 0.2)], "mu rises"),
                           ([(1.0, 0.5, 0.5, 0.3), (2.0, 0.4, 0.5, 0.2)], "fn falls")):
            try:
                oracle.check_monotone(rows, "grid")
                caught = False
            except Mismatch:
                caught = True
            missed += not caught
            print(f"monotonicity: {'rejected' if caught else 'MISSED  '}  {what}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("all perturbations rejected" if not missed else f"{missed} perturbations missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
