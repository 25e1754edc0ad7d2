"""The machine's speed, measured next to every timed op.

This benchmark runs on a shared host whose speed drifts by a third or more
over seconds to minutes (a neighbour on the same physical core, steal, turbo
budget).  Process CPU time drifts with wall time, so no clock avoids it, and
a run's best repeats only help when the run happens to contain a fast
stretch.  So every timed op is bracketed by ``kernel_s()``, a fixed
interpreter-bound kernel that uses no spun4d and no numpy, and its time is
reported at the reference speed:

    op_s * REFERENCE_S / median(kernel runs in the six gaps around the op)

The kernel's work never changes, so a change to spun4d moves the scaled time
exactly as it moves the measured one; only the machine's speed at the moment
of the op is divided out.  The garbage collector is off while the kernel runs,
so its time does not depend on how many objects the program under test keeps
alive.  Raw times are printed next to the scaled ones.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# about the median kernel time on the 2-core VM the nominal cycle times were
# measured on (Python 3.11.7), so scaled times read as seconds on that machine
REFERENCE_S = 0.020


def kernel_s() -> float:
    """Seconds the fixed kernel takes now: rational, integer, float and
    dictionary work, the mix the package's Python loops do."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 480):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        counts: dict[int, int] = {}
        for i in range(48000):
            counts[i % 997] = counts.get(i % 997, 0) + i * i
        x = 0.0
        for i in range(48000):
            x += (i * 1.0001) ** 0.5
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if acc <= 0 or x <= 0 or len(counts) != 997:
        raise AssertionError("speed kernel computed a wrong result")
    return elapsed


def scale(kernels: list[float]) -> float:
    """Factor that turns a time measured amid these kernel runs into a time
    at the reference speed.  One run jitters by up to a third, so the median
    of several is used."""
    return REFERENCE_S / statistics.median(kernels)
