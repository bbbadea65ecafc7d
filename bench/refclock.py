"""A clock that reads in reference seconds: work time at a fixed CPU speed.

On a shared machine a vCPU runs at two speeds about 1.7x apart, and it
switches between them within a second, independently of the other vCPU.
Raw times of identical work then spread far more across runs than any
useful bound.  ``RefClock`` times a short fixed calibration kernel every
``PERIOD_S`` seconds of work, from a SIGALRM handler, and counts each
stretch of work between two kernel runs at the speed the kernel saw at
its end (see ``scale``).  Its ``ref`` reading is the work's time on a
machine where one kernel run takes ``REFERENCE_KERNEL_S``; its ``raw``
reading is plain seconds.  Both leave out the time spent in the kernel
itself.

The kernel never touches floerforge and never changes, so a change to
floerforge shows in full in reference seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02  # work between two kernel runs
REFERENCE_KERNEL_S = 0.001  # one kernel run, in reference seconds


def kernel() -> int:
    """Fixed pure-Python work with floerforge's instruction mix (dicts of
    dicts keyed by strings, Fraction arithmetic), about 1 ms long."""
    rows: dict = {}
    for i in range(200):
        rows.setdefault(f"g{i % 50}", {})[f"h{i % 97}"] = Fraction(i % 13, 3) + Fraction(1, 2)
    return len(rows)


def kernel_seconds() -> float:
    """One timed kernel run.  The kernel makes no cycles, so the collector
    is paused to keep the program's heap out of the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_factor(exponent: float, runs: int = 5) -> float:
    """Reference seconds per raw second now, from ``runs`` kernel runs."""
    return scale(statistics.mean(kernel_seconds() for _ in range(runs)), exponent)


def scale(kernel_time: float, exponent: float) -> float:
    """Reference seconds per raw second at a speed where one kernel run
    takes ``kernel_time``.  When the CPU slows down, a piece of work slows
    down by the kernel's factor to some power of its own: less for process
    start and C-level work such as JSON, more for pure-Python arithmetic.
    ``exponent`` is that power."""
    return (REFERENCE_KERNEL_S / kernel_time) ** exponent


class RefClock:
    """Use as a context manager; ``read()`` returns ``(raw, ref)`` seconds
    of work since entry.  The difference of two readings times a sample."""

    def __init__(self, exponent: float = 1.0, period: float = PERIOD_S):
        self.exponent = exponent  # may change between samples
        self.period = period
        self.raw = 0.0
        self.ref = 0.0
        self.kernel_runs: list[float] = []
        self._mark = 0.0  # end of the last kernel run
        self._busy = False

    def _fold(self):
        # Count the work since the last kernel run at the speed of a new one.
        end = time.perf_counter()
        k = kernel_seconds()
        self.raw += end - self._mark
        self.ref += (end - self._mark) * scale(k, self.exponent)
        self.kernel_runs.append(k)
        self._mark = time.perf_counter()

    def _tick(self, signum, frame):
        if self._busy:  # read() is folding; the next tick comes soon
            return
        self._busy = True
        try:
            self._fold()
        finally:
            self._busy = False

    def read(self) -> tuple[float, float]:
        self._busy = True
        try:
            self._fold()
            return self.raw, self.ref
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
