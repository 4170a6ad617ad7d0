"""Fixed pure-Python work that measures the CPU speed this process gets.

On a shared host that speed can drop by 1.5-2.5x for seconds or minutes at a
time, on each vCPU on its own, and CPU time slows along with wall time (seen
on a 2-vCPU VM).  The reference loop does the kind of work ramval does
(Fraction sums, dict updates keyed by exponent tuples) and slows down like it:
rescaling each command's time by the loop's speed during the command cut the
spread of report-command times from ~15% to ~3% there, where a tight integer
loop only reached ~7%.  The loop is short (under 1 ms), so that samples fit
between the host's interruptions.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

ITERATIONS = 400
# Shortest wall time of `loop()` on a vCPU of the VM the benchmark was written
# on (Python 3.11.7).  It only sets the scale of the reported times, which
# read as seconds at that speed, and cancels in any before/after ratio.
REFERENCE_S = 0.00078

SAMPLE_INTERVAL_S = 0.02


def loop() -> float:
    """Wall time of the reference work."""
    t0 = time.perf_counter()
    terms: dict = {}
    total = Fraction(0)
    for i in range(ITERATIONS):
        key = (i % 13, i % 11)
        terms[key] = (terms.get(key, 0) + i) % 7
        total += Fraction(i % 5, 3)
    return time.perf_counter() - t0


def speed(wall: float) -> float:
    """Speed during a `loop()` that took `wall`, relative to the reference."""
    return REFERENCE_S / wall


class Sampler:
    """Samples the speed while a command runs: every SAMPLE_INTERVAL_S a
    SIGALRM handler runs a short reference loop between bytecodes.  `wall`
    and `cpu` add up the time the samples took, to subtract from the
    command's time."""

    def __init__(self):
        self.speeds: list[float] = []
        self.wall = 0.0
        self.cpu = 0.0

    def _sample(self, signum, frame):
        c0 = time.process_time()
        wall = loop()
        self.cpu += time.process_time() - c0
        self.wall += wall
        self.speeds.append(speed(wall))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mean_speed(self) -> float:
        """Time-averaged speed over the command.  A command shorter than
        one interval gets a sample taken right after it."""
        if not self.speeds:
            self.speeds.append(speed(loop()))
        return sum(self.speeds) / len(self.speeds)
