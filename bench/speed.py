"""Host speed reference that the benchmark's timings are scaled by.

The host this benchmark was built on switches between speed states: for
seconds to minutes at a time the same work takes up to 1.8 times longer,
and every layer of a pass slows with it. Two runs a minute apart then
disagree by more than any change worth measuring. So each pass is bracketed
by `control()`, a fixed job of interpreter work and CSV formatting and
parsing (the kind of work a faultlab pass mostly does), and each timing is
multiplied by REFERENCE_S / (mean control time around its pass). Scaled
figures read as seconds on the host in its reference state; a change to
faultlab moves them and a change of host speed mostly does not. The raw
figures are printed as well.
"""

from __future__ import annotations

import csv
import io
from time import perf_counter

# Control time on the reference host in its fast state (2 vCPU x86-64 VM,
# Python 3.11); it sat between 0.060 and 0.070 s there, and near 0.09 s in
# the slow state.
REFERENCE_S = 0.065

_VALUES = [0.2 + 1e-5 * ((k * 7919) % 10007) for k in range(12_000)]


def control() -> float:
    """Seconds taken by the fixed control job now."""
    t0 = perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i
    buf = io.StringIO()
    writer = csv.writer(buf)
    for k, v in enumerate(_VALUES):
        writer.writerow([str(600 * k), "n1", "soil_moisture", repr(v)])
    parsed = [float(row[3]) for row in csv.reader(io.StringIO(buf.getvalue()))]
    if len(parsed) != len(_VALUES) or acc <= 0:
        raise RuntimeError("control job went wrong")
    return perf_counter() - t0
