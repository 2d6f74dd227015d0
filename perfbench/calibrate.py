"""A fixed pure-Python computation that measures how fast the host runs
Python right now.

On a shared machine the same deterministic germcalc case can take twice as
long from one minute to the next, with process CPU time moving with wall
time.  A timed run therefore times this kernel every SAMPLE_EVERY_S while
its cases run and divides each case's time by the kernel times around it;
multiplied by ``REFERENCE_S`` the ratio reads as seconds on a host where one
kernel call takes ``REFERENCE_S``.  The kernel does what germcalc's inner
loops do (products of sparse polynomials held in dicts keyed by exponent
tuples, with ``Fraction`` coefficients) and imports nothing from germcalc,
so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Median kernel() time on the machine where the benchmark was defined
# (2-vCPU Xeon KVM guest, Python 3.11.7).
REFERENCE_S = 0.012
SAMPLE_EVERY_S = 0.2
# a case is scaled by the samples taken while it ran and this long around it
MARGIN_S = 1.0


def kernel() -> int:
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    b = {(i, j): Fraction(2 * i - 3, j + 1) for i in range(6) for j in range(5)}
    for _ in range(3):
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = (ea[0] + eb[0], ea[1] + eb[1])
                if e[0] + e[1] > 12:
                    continue
                out[e] = out.get(e, 0) + ca * cb
        # keep the numbers small so every call does the same work
        a = {e: Fraction(c.numerator % 1009, c.denominator % 1013 or 1)
             for e, c in out.items() if c}
    return len(a)


def measure(calls: int = 10) -> float:
    """Median time of ``calls`` kernel calls."""
    times = []
    for _ in range(calls):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times one kernel call every ``every_s`` of wall time, from a SIGALRM
    handler in the main thread, while the ``with`` block runs; with
    ``every_s=None`` it takes no samples.

    ``spent`` is the total wall time the samples took and ``spent_cpu``
    their process CPU time, so a caller can take each out of the matching
    clock of whatever the samples interrupted.  The two differ when the
    host preempts the process during a sample.
    """

    def __init__(self, every_s: float | None = SAMPLE_EVERY_S):
        self.every_s = every_s
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._previous = None
        self._busy = False

    def sample(self, signum=None, frame=None) -> None:
        """Time one kernel call (the SIGALRM handler).  A signal that
        arrives while a sample runs is dropped, not nested."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        c0 = time.process_time()
        kernel()
        cpu = time.process_time() - c0
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.took.append(took)
        self.spent += took
        self.spent_cpu += cpu
        self._busy = False

    def __enter__(self) -> "Sampler":
        if self.every_s is not None:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.every_s is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def around(self, start: float, end: float, margin: float = MARGIN_S) -> float:
        """Mean kernel time of the samples taken from ``start - margin`` to
        ``end + margin``, or of the nearest sample when there is none."""
        if not self.at:
            raise ValueError("no calibration samples were taken")
        lo = bisect.bisect_left(self.at, start - margin)
        hi = bisect.bisect_right(self.at, end + margin)
        if lo < hi:
            return statistics.fmean(self.took[lo:hi])
        nearest = min(range(max(lo - 1, 0), min(lo + 1, len(self.at))),
                      key=lambda i: abs(self.at[i] - start))
        return self.took[nearest]
