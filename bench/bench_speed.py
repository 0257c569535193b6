"""Machine-speed calibration.

On a shared virtual machine the speed of one core drifts by up to half
over seconds to minutes, with the same factor for every instruction mix
tried (wrkit jobs and this kernel stay within a few per cent of a fixed
ratio while both slow down together).  Raw times from two runs minutes
apart therefore differ by more than any useful regression bound.

The harness times this fixed pure-Python kernel before and after every
job, and on untraced passes every half second during it, and scales the job's times by
``REFERENCE_S / mean kernel time``: reported times are seconds at the
speed where the kernel takes ``REFERENCE_S``.  The kernel does not touch
wrkit, so a change to wrkit moves the scaled times exactly as it moves
the raw ones.  Raw times are kept in the run record.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter, process_time

# The kernel's time on an unloaded core of the reference machine
# (2-vCPU Intel Xeon VM, CPython 3.11.7).  A constant: only its ratio to
# the measured kernel time enters the results.
REFERENCE_S = 0.0017


def reference_kernel() -> int:
    """Bit loops, dict updates, Fraction and big-integer arithmetic: the
    operations wrkit's exact layers and sampler spend their time in."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(1500):
        m = (i * 2654435761) & 0xFFFFF
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
        table[i & 255] = table.get(i & 255, 0) + acc
    x = Fraction(3, 7)
    for _ in range(60):
        x = x * Fraction(7, 5) + 1
    big = 3**3000
    return acc + (big * big).bit_length() + x.denominator.bit_length()


def kernel_seconds() -> float:
    """Best of two kernel runs, so one interrupt does not skew the scale."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        reference_kernel()
        best = min(best, perf_counter() - start)
    return best


class SpeedSampler:
    """Times the kernel before, during and after a block of code.

    During the block a SIGALRM handler runs the kernel every ``interval``
    seconds; ``spent`` and ``spent_cpu`` are the wall and CPU time those
    runs took, which the caller subtracts from the block's times.  Long
    jobs thereby get the mean speed over their whole duration, not only at
    their ends.  ``interval=None`` samples at the ends only.
    """

    def __init__(self, interval: float | None = 0.5) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        start, start_cpu = perf_counter(), process_time()
        self.samples.append(kernel_seconds())
        self.spent += perf_counter() - start
        self.spent_cpu += process_time() - start_cpu

    def __enter__(self) -> "SpeedSampler":
        self.samples = [kernel_seconds()]
        self.spent = self.spent_cpu = 0.0
        if self.interval:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def scale(self, after: float) -> float:
        """REFERENCE_S over the mean kernel time, given the kernel time
        measured after the block."""
        samples = self.samples + [after]
        return REFERENCE_S * len(samples) / sum(samples)
