"""Contention correction for a machine whose speed is shared with others.

On a shared host the interpreter's speed drifts by half or more within tens
of seconds.  A fixed piece of interpreter work (the calibration loop) is
timed next to every measured item, and every PERIOD_S during a long
operation from a timer signal.  Each measured time is scaled by the mean of
REFERENCE_NS / (loop time) over those samples.  Calibrated seconds are
therefore seconds on this machine when it runs at the loop's reference speed.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_NS = 500_000  # the loop's time on an idle 2-core Xeon host, CPython 3.11
PERIOD_S = 0.02

_clock = time.perf_counter_ns


def _loop() -> int:
    """Tuples, dict updates, small-integer and Fraction arithmetic: the kinds
    of work alcove does, in a fixed amount."""
    table: dict = {}
    total = 0
    step = Fraction(1, 3)
    acc = Fraction(0)
    for i in range(1000):
        key = (i % 17, i * 7 % 13, i & 5)
        table[key] = table.get(key, 0) + 1
        total += sum(key) % 11
        if i % 10 == 0:
            acc += step
    return total + acc.numerator


def sample() -> int:
    """Nanoseconds the calibration loop takes now; the faster of two runs,
    so that one preemption does not count as contention."""
    best = None
    for _ in range(2):
        start = _clock()
        _loop()
        elapsed = _clock() - start
        best = elapsed if best is None or elapsed < best else best
    return best


def factor(*samples: int) -> float:
    """Scale for a time measured while these samples were taken."""
    return sum(REFERENCE_NS / s for s in samples) / len(samples)


class Meter:
    """Samples the calibration loop from SIGALRM while an operation runs.

    The handler's own time is kept in spent_ns so that it can be taken out
    of the operation's measured time.
    """

    def __init__(self) -> None:
        self.samples: list[int] = []
        self.spent_ns = 0
        self.active = False

    def _tick(self, signum, frame) -> None:
        if self.active:
            start = _clock()
            _loop()
            elapsed = _clock() - start
            self.samples.append(elapsed)
            self.spent_ns += _clock() - start

    def __enter__(self) -> "Meter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
