"""Host-speed reference for the benchmark's timings.

On a shared host the speed of a process drifts by a quarter or more over
seconds, and two processes started moments apart can differ as much. A
reference kernel timed inside the same process, next to the measured work,
moves with it, so dividing by it cancels most of that drift. The kernel is
the benchmark's own code and calls neither dagtest nor BLAS, so no change to
the program or its BLAS thread policy alters it.

Every end-to-end timing is reported in reference seconds:
raw seconds x NOMINAL_KERNEL_S / (median kernel time in that process).

This module imports only the standard library at the top, so importing it
before a measurement does not move work out of the program's set-up.
"""

from __future__ import annotations

import statistics
import sys
import time

# About the median kernel time on the 2-core Xeon (2.1 GHz) the benchmark was
# tuned on, where it ranged over 0.75-1.3 ms. It only fixes the unit: changing
# it rescales every timing, so it must stay fixed for results to compare.
NOMINAL_KERNEL_S = 1.0e-3
# Printed to stderr by a wrapped CLI process, with its calibration figures.
CALIBRATION_MARK = "bench-calibration"
PHASE_S = 0.15

_data = None


def kernel() -> float:
    """Small elementwise numpy work and dict churn, about 1 ms."""
    global _data
    import numpy as np

    if _data is None:
        _data = np.linspace(0.0, 1.0, 2000)
    acc = 0.0
    for i in range(60):
        b = np.sqrt(_data * 1.5 + i)
        acc += float(b.sum()) + float(b[::7].max())
        d = {j: j + i for j in range(60)}
        acc += sum(d.values())
    return acc


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def phase(seconds: float = PHASE_S) -> tuple[float, float, float]:
    """Run the kernel for `seconds`: (median kernel time, wall, CPU)."""
    t0, c0 = time.perf_counter(), time.process_time()
    times = [timed_kernel()]
    while time.perf_counter() - t0 < seconds:
        times.append(timed_kernel())
    return statistics.median(times), time.perf_counter() - t0, time.process_time() - c0


def run_cli(setup_mark: str) -> None:
    """Run `dagtest.cli.main` as the console script does, bracketed by two
    kernel phases. Prints the set-up mark once the import is done, then one
    calibration line: median kernel time before and after, and the wall and
    CPU time the phases took, which the parent subtracts."""
    from dagtest.cli import main

    print(setup_mark, time.clock_gettime(time.CLOCK_MONOTONIC), file=sys.stderr, flush=True)
    before, wall1, cpu1 = phase()
    try:
        code = main()
    finally:
        after, wall2, cpu2 = phase()
        print(CALIBRATION_MARK, before, after, wall1 + wall2, cpu1 + cpu2, file=sys.stderr, flush=True)
    sys.exit(code)
