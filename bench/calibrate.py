"""Machine-speed calibration for the end-to-end times.

The reference machine's CPU speed changes by up to 2x for seconds to
minutes at a time (CPU time equals wall time, so this is not
descheduling).  A fixed snippet, a pure-Python loop plus small int64
matrix products like the ones syzkit runs, is timed right after every
command and after every set-up measurement.  A time t taken while the
snippet took c seconds is reported as t * REFERENCE_S / c: seconds at the
speed at which the snippet takes REFERENCE_S, about the reference
machine's fast state.  Raw times are printed next to them.

On that machine, five runs of one command list gave 5.6 to 7.4 raw
commands per second and 0.0187 to 0.0192 calibrated ones.
"""

import gc
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
WINDOW = 2          # a command uses the snippet times of WINDOW neighbours on each side

_A = (np.arange(3600, dtype=np.int64).reshape(60, 60) * 7919) % 31
_B = (np.arange(3600, dtype=np.int64).reshape(60, 60) * 104729) % 31


def snippet_seconds():
    """Time the snippet once, with the garbage collector paused so that a
    collection of the previous command's garbage is not charged to it."""
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(5):
            (_A @ _B) % 31
        return time.perf_counter() - start
    finally:
        gc.enable()


def factors(snippet_times):
    """Per-sample speed factor REFERENCE_S / (median snippet time of the
    sample and its WINDOW neighbours on each side)."""
    n = len(snippet_times)
    return [REFERENCE_S / statistics.median(snippet_times[max(0, i - WINDOW):i + WINDOW + 1])
            for i in range(n)]
