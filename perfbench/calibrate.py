"""Host-speed calibration: a fixed reference computation timed alongside the workload.

The host is a few cores of a shared machine whose speed drifts by tens
of percent over minutes, which moves every workload alike.  The timed
metrics are therefore scaled to a reference host speed: a workload time
``t`` measured while the reference computation took ``r_1 .. r_k``
seconds is reported as ``t * NOMINAL_S / H``, where ``H`` is the
harmonic mean of the ``r_i``.  The harmonic mean is the right one for
samples taken at even intervals of time: the work done per second is
proportional to ``1 / r``, and ``t`` is the work divided by the mean
rate.  It also gives little weight to a sample stretched by a pause.
The reference is benchmark code, not ``gridperm`` code, so a change to
the package moves ``t`` and not ``r``.

Inside a worker, :class:`Meter` times the reference every ``INTERVAL_S``
seconds from a timer signal, so that the samples cover the same seconds
as the workload, and keeps count of the time it took from the workload.

Set-up time is scaled the same way by a reference of its own kind: a
fresh interpreter that imports standard-library modules only
(``STARTUP_CODE``), started right after each set-up probe.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Typical time of one ``reference_work()`` on a 2-vCPU x86-64 virtual
# machine with CPython 3.11; it only sets the scale of the scaled times.
NOMINAL_S = 0.014
INTERVAL_S = 0.25
# the reference start-up prints the CLOCK_MONOTONIC time at which its imports are done
STARTUP_CODE = (
    "import argparse, fractions, json, random, time; "
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))"
)
# typical time of a ``STARTUP_CODE`` interpreter on the same machine
NOMINAL_STARTUP_S = 0.065
# 2**1279 - 1 is prime; products reduced modulo it stay 1279 bits long
_MODULUS = (1 << 1279) - 1
_FACTOR = 3**700
# 100,000 int objects and their pointers, about 4 MB: more than a 2 MB L2
# cache holds, so summing them in shuffled order tracks the memory system
# that a shared host slows down more than the arithmetic.  They add a
# constant 4 MB to the worker's peak RSS.
_HEAP = list(range(1 << 20, (1 << 20) + 100_000))
random.Random(0).shuffle(_HEAP)


def reference_work() -> int:
    """A fixed mix of interpreter work, big-integer arithmetic and memory access.

    It creates no containers, so it starts no garbage collection that
    the workload would otherwise not have run.
    """
    small = 0
    for i in range(40_000):
        small = (small + i * i) % 1_000_003
    big = _FACTOR
    for i in range(500):
        big = (big * (_FACTOR + i)) % _MODULUS
    return small ^ (big & 0xFFFF) ^ sum(_HEAP)


def sample() -> float:
    """Seconds taken by one ``reference_work()``."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def warm_up() -> None:
    """Runs the reference until the interpreter has specialised its bytecode."""
    for _ in range(3):
        reference_work()


def scale(seconds: float, reference_s: list[float]) -> float:
    """``seconds`` at reference host speed, given reference times taken alongside."""
    return seconds * NOMINAL_S / statistics.harmonic_mean(reference_s)


def scale_setup(pairs: list[tuple[float, float]]) -> float:
    """Set-up time at reference host speed, from (set-up, reference start-up) time pairs.

    Each pair ran back to back, so the median of their ratios is taken.
    """
    return NOMINAL_STARTUP_S * statistics.median(setup / reference for setup, reference in pairs)


class Meter:
    """Times the reference every ``INTERVAL_S`` seconds while active.

    ``samples`` are the reference times; ``spent_s`` is the time the
    samples took, which the caller subtracts from what it timed.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - start
        self._busy = False

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
