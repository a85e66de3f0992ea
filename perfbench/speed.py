"""Correct job times for the machine's changing speed.

On a shared host a virtual CPU runs at two speeds: alone on its core, or
about 1.6 times slower while a neighbour uses the sibling hyperthread.
The state flips every fraction of a second to a few seconds, and the two
CPUs of one machine flip independently, so a job's raw time depends on the
luck of its run more than on the code.

``Speedometer`` samples the speed of the CPU the process is running on:
a timer signal interrupts the process every ``EVERY_S`` and the handler
times a fixed pure-Python kernel.  ``Speedometer.corrected`` turns an
interval of wall time into the seconds it would have taken at the speed
at which the kernel takes its nominal time, leaving out the handler's
own time.  The kernels use none of the package, so a change to the
package cannot move them.

How much the slow state costs depends on the code, so each workload is
sampled with the kernel that tracked its jobs best (``WORKLOAD_KERNELS``).
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

EVERY_S = 0.02
# the fewest samples a speed is estimated from; a short job takes the
# samples nearest to it
MIN_SAMPLES = 3

_ROWS = [tuple((7 * i + 3 * j) % 11 - 5 for j in range(12)) for i in range(12)]
_COLS = list(zip(*_ROWS))


def matrix_kernel() -> int:
    """A 12x12 small-int product by generator sums, rows keyed in a dict:
    short calls and tuple building, the instruction mix of small
    homology computations and the command-line verbs."""
    product = [tuple(sum(a * b for a, b in zip(row, col)) for col in _COLS)
               for row in _ROWS]
    return len({row: i for i, row in enumerate(product)})


_MODULUS = 1009 * 1009
_SUMS = [0] * 24
_TABLE = {i: i * 7 % 11 for i in range(24)}


def loop_kernel() -> int:
    """Power sums mod a square: long integer loops, the instruction mix
    of ``primes.irregular_indices`` and of dense matrix products."""
    sums = _SUMS
    for i in range(24):
        sums[i] = 0
    for a in range(1, 40):
        a2 = a * a % _MODULUS
        pw = a2
        for i in range(24):
            sums[i] += pw + _TABLE[i]
            pw = pw * a2 % _MODULUS
    return sums[0]


# kernel -> its time between jobs on an Intel Xeon (Sapphire Rapids) vCPU
# in the fast state, Python 3.11: corrected seconds are the time a job
# takes on such a vCPU with its core to itself
NOMINAL_S = {matrix_kernel: 0.00022, loop_kernel: 0.00013}
# the kernel of each workload.  Timed side by side on the same repeated
# jobs, the loop kernel tracked the long arithmetic loops of a regularity
# job and of a weight-5 hh-deep job best, and the matrix kernel the short
# calls, tuples and Fractions of hh-wide modules and verbs (README.md).
WORKLOAD_KERNELS = {"hh-deep": loop_kernel, "hh-wide": matrix_kernel,
                    "verbs": matrix_kernel, "regularity": loop_kernel}


class Speedometer:
    """Samples the speed of the CPU the process runs on, from ``start``
    to ``stop``."""

    def __init__(self, kernel=matrix_kernel):
        self.kernel = kernel
        self.nominal_s = NOMINAL_S[kernel]
        self.begins: list[float] = []  # kernel start times, ascending
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        # a collection set off inside the kernel would read as a slow
        # machine; the kernel frees all it allocates before it returns
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.begins.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self.kernel()  # warm
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self) -> list[float]:
        return [e - b for b, e in zip(self.begins, self.ends)]

    def corrected(self, a: float, b: float) -> float:
        """Seconds the interval [a, b] of ``perf_counter`` would have taken
        at nominal speed, without the sampler's own time inside it."""
        lo = bisect.bisect_left(self.begins, a)
        hi = bisect.bisect_left(self.begins, b)
        busy = sum(self.ends[i] - self.begins[i] for i in range(lo, hi))
        if hi - lo < MIN_SAMPLES:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.begins) - MIN_SAMPLES))
            hi = min(len(self.begins), lo + MIN_SAMPLES)
        speed = statistics.fmean(self.nominal_s / (self.ends[i] - self.begins[i])
                                 for i in range(lo, hi))
        return (b - a - busy) * speed
