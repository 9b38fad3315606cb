"""How fast the host runs Python right now, to normalise the timings.

On a shared host the same pass can take 1.5 times as long from one minute
to the next, and no statistic over the samples of one run removes that:
a whole run can fall in a slow phase.  So the worker times a fixed
reference, which shares no code with arrcoh, between items (at least every
``EVERY_S`` seconds) and, from a timer signal, every ``EVERY_S`` seconds
inside an item that runs longer; the time the samples inside an item take
is taken off the item's time.  Each sample ``r`` gives a speed
``nominal / r``, and an item's time is scaled by the mean speed of the
samples just before, inside and just after it: the mean, because a slow
phase can come in bursts shorter than an item, and the item's time adds up
the bursts it met.  A program that gets faster still reads faster; a host
that gets slower slows the reference and the item alike, and the scaled
time stays put.  The raw times are kept in the result file.

The reference is a pure-Python kernel for items that run in the worker,
and a bare interpreter start for items that start a child process: the
kernel does not see how fast processes start, and the timer cannot sample
inside a child.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, process_time

EVERY_S = 0.05  # the longest stretch of work between two reference samples (about 5% overhead)
# each reference's time on a calm host (2-vCPU VM, Python 3.11): a scaled
# time reads as the time the item would take at that speed
NOMINAL_S = 0.0025
NOMINAL_START_S = 0.045

_RNG = random.Random(7)
_P = 101
_N = 24
_MATRIX = [[_RNG.randrange(_P) for _ in range(_N)] for _ in range(_N)]


def reference_kernel() -> int:
    """Small integer matrix product mod p, Fraction sums and tuple-keyed
    counting: the kinds of work arrcoh does, in a fixed amount."""
    a = _MATRIX
    cols = list(zip(*a))
    prod = [[sum(x * y for x, y in zip(row, col)) % _P for col in cols] for row in a]
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(i % 7 + 1, i)
    counts: dict = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    return prod[0][0] + f.numerator % _P + len(counts)


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()  # the program's garbage must not be collected on the kernel's clock
    try:
        t0 = perf_counter()
        reference_kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def start_seconds() -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - t0


class HostSpeed:
    """Reference samples taken in one process: (end time, seconds).

    With ``starts``, the reference is a bare interpreter start and there are
    no samples inside items.  Otherwise it is the kernel and, unless
    ``inside`` is false, creating one installs a SIGALRM handler: ``arm``
    and ``disarm`` bracket an item during which samples are taken from the
    timer, and ``spent`` and ``spent_cpu`` add up the wall and CPU time
    those samples took.
    """

    def __init__(self, starts: bool = False, inside: bool = True) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self.inside = inside and not starts
        self.measure, self.nominal = (start_seconds, NOMINAL_START_S) if starts else (kernel_seconds, NOMINAL_S)
        if self.inside:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        w0, c0 = perf_counter(), process_time()
        self.sample()
        self.spent += perf_counter() - w0
        self.spent_cpu += process_time() - c0

    def arm(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def disarm(self) -> None:
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def sample(self) -> None:
        r = self.measure()
        self.times.append(perf_counter())
        self.seconds.append(r)

    def maybe_sample(self) -> None:
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed of the last sample before an interval, the samples
        inside it and the first after it."""
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1) + 1
        return mean_speed(self.seconds[lo:hi] or self.seconds[-1:], self.nominal)


def mean_speed(seconds: list[float], nominal: float = NOMINAL_S) -> float:
    """Mean of ``nominal / r`` over reference samples ``r``."""
    return statistics.fmean(nominal / r for r in seconds)
