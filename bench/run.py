"""faultlab benchmark: one workload in one single-threaded process.

    python3 bench/run.py --workload study-sweep --seed 1 --seconds 30 --trace 0

Set-up is timed first: imports, the seeded inputs (written three times, the
median counts) and one warm-up pass that is thrown away. Then whole passes
run back to back until `--seconds` have gone by; each pass is bracketed by
the host speed control (see speed.py) and followed by its correctness
checks, neither of which is timed. The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end figures with `--trace 0`, the per-layer figures with `--trace 1`.
A traced run alternates traced and untraced passes, so the tracing overhead
is measured in the same process. See bench/README.md.
"""

from time import perf_counter

T_START = perf_counter()

import os  # noqa: E402

# One thread for numpy/BLAS; these must be set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["study-sweep", "cli-walkthrough", "field-ingest"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def tree_hashes(d: Path) -> dict[str, str]:
    return {str(f.relative_to(d)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(d.rglob("*")) if f.is_file()}


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / "src").rglob("*.py"))


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "faultlab" / "__init__.py").is_file():
        print(f"bench: no faultlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    import faultlab.cli  # noqa: F401  (imports every layer)
    from oracle import Mismatch
    from spans import Meter, PER_LAYER, RowCounter, Tracer, layer_metrics, unpatch
    from speed import REFERENCE_S, control
    from workloads import WORKLOADS, Ops
    import_s = perf_counter() - T_START

    work = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    rows = RowCounter()
    meter = Meter(rows)
    meter.install()
    tracer = Tracer(rows)
    errors: list[str] = []

    def fresh_pass_dir():
        shutil.rmtree(wl.out, ignore_errors=True)
        wl.out.mkdir(parents=True)

    def check(ops, reference):
        try:
            got = tree_hashes(wl.out)
            if got != reference:
                diff = sorted(k for k in got.keys() | reference.keys()
                              if got.get(k) != reference.get(k))
                raise Mismatch(f"outputs differ from the first pass: {diff[:5]}")
            wl.check(ops)
        except Exception as exc:  # any failure to confirm an output is a failed check
            errors.append(f"{type(exc).__name__}: {exc}")

    try:
        gen = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.make_inputs()
            gen.append(perf_counter() - t0)
        fresh_pass_dir()
        c0 = control()
        t0 = perf_counter()
        wl.run_pass(Ops())
        warm_s = perf_counter() - t0
        setup_ctrl = (c0 + control()) / 2
        setup_raw = import_s + statistics.median(gen) + warm_s
        reference = tree_hashes(wl.out)
        wl.prepare()

        passes = []
        attempted = failed = 0
        t_measure = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            fresh_pass_dir()
            ops = Ops()
            meter.reset()
            c0 = control()
            undo = tracer.install() if traced else []
            first_span = len(tracer.spans)
            t0 = perf_counter()
            wl.run_pass(ops)
            pass_s = perf_counter() - t0
            unpatch(undo)
            ctrl = (c0 + control()) / 2
            attempted += ops.attempted
            failed += ops.failed
            if not passes:
                first_failures = ops.errors
            passes.append({
                "traced": traced, "ctrl": ctrl, "pass_s": pass_s, "sweep_s": ops.sweep_s,
                "ingest_rows": meter.ingest_rows, "ingest_s": meter.ingest_s,
                "write_rows": meter.write_rows, "write_s": meter.write_s,
                "layers": layer_metrics(tracer.spans[first_span:], first_span)
                if traced else None,
            })
            check(ops, reference)
            # A traced run stops after an untraced pass, so passes pair up.
            done = perf_counter() - t_measure >= args.seconds
            if done and (not args.trace or len(passes) % 2 == 0):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def figures(ps, scaled: bool) -> dict[str, float]:
        """Per-pass means; rates are total rows over total time."""
        f = [REFERENCE_S / p["ctrl"] if scaled else 1.0 for p in ps]
        return {
            "pass_s": statistics.fmean(p["pass_s"] * k for p, k in zip(ps, f)),
            "sweep_s": statistics.fmean(p["sweep_s"] * k for p, k in zip(ps, f)),
            "ingest_rows_per_s": sum(p["ingest_rows"] for p in ps)
            / sum(p["ingest_s"] * k for p, k in zip(ps, f)),
            "write_rows_per_s": sum(p["write_rows"] for p in ps)
            / sum(p["write_s"] * k for p, k in zip(ps, f)),
        }

    untraced = [p for p in passes if not p["traced"]]
    raw = figures(untraced, scaled=False)
    raw["setup_s"] = setup_raw
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                continue
            if unit == "count":  # the same in every pass
                value = traced[0]["layers"][name]
            else:
                value = statistics.fmean(p["layers"][name] * (
                    REFERENCE_S / p["ctrl"] if unit == "s" else 1.0) for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": figures(traced, True)["pass_s"]
                                       - figures(untraced, True)["pass_s"], "unit": "s"}
        trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(trace_path, {"workload": args.workload, "seed": args.seed,
                                 "passes": len(passes)})
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        units = {"pass_s": "s", "sweep_s": "s", "ingest_rows_per_s": "1/s",
                 "write_rows_per_s": "1/s"}
        metrics = {"setup_s": {"value": setup_raw * REFERENCE_S / setup_ctrl, "unit": "s"}}
        metrics.update({k: {"value": v, "unit": units[k]}
                        for k, v in figures(untraced, scaled=True).items()})
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for msg in errors[:10]:
        print(f"# check failed: {msg}", file=sys.stderr)
    for msg in first_failures:
        print(f"# operation failed: {msg}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"attempted={attempted} failed={failed}")
    print("# unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
          + f" control_s={statistics.fmean(p['ctrl'] for p in passes):.6g}")
    print("# pass_s per pass: " + " ".join(f"{p['pass_s']:.4g}" for p in passes))
    print(f"# python={platform.python_version()} numpy={np.__version__} "
          f"src_lines={src_lines()}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
