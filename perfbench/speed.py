"""Machine-speed probe, for rescaling measured times to a reference speed.

On a small shared VM the speed of a core changes from one tenth of a second
to the next (other tenants' work on the same physical core) and its mean
level changes from minute to minute.  Times taken at different moments are
only comparable once each is divided by the speed the machine ran at while
it was taken.  ``probe`` is a fixed piece of pure-Python work like bht's own
(small-int arithmetic, dict and list updates); ``Speedometer`` times it every
PERIOD seconds from a SIGALRM handler while ops run, and ``rescale`` turns an
op's measured seconds into seconds at the speed at which ``probe`` takes REF
seconds.

Caveat: work that the program itself runs beside the op (threads or
processes on the other core) slows the probe too, and so is partly hidden.
"""

from __future__ import annotations

import bisect
import signal
import time

clock = time.perf_counter

REF = 2.0e-4  # seconds the probe takes at the reference speed
PERIOD = 0.005  # seconds between probes while ops run
WINDOW = 0.02  # probes this close before or after an op also speak for it


def probe() -> int:
    s = 0
    d: dict[int, int] = {}
    acc: list[int] = []
    for i in range(1200):
        s += i * i % 7
        d[i & 63] = s
        if i & 7 == 0:
            acc.append(s)
    return s + len(acc) + len(d)


def sample(seconds: float) -> list[tuple[float, float]]:
    """(start, seconds) of probes run back to back for about ``seconds``."""
    out = []
    end = clock() + seconds
    while True:
        t0 = clock()
        probe()
        t1 = clock()
        out.append((t0, t1 - t0))
        if t1 >= end:
            return out


def factor(times: list[float]) -> float:
    """Reference speed over measured speed, averaged over probe samples."""
    return sum(REF / t for t in times) / len(times)


class Speedometer:
    """Probes every PERIOD seconds while open, and for WINDOW seconds back to
    back on opening and closing, so that the first and last ops have probes
    around them.  ``rescale`` reads it off once it is closed."""

    def __init__(self) -> None:
        self.at: list[float] = []  # probe start times, ascending
        self.took: list[float] = []

    def _add(self, probes: list[tuple[float, float]]) -> None:
        for t0, took in probes:
            self.at.append(t0)
            self.took.append(took)

    def _tick(self, signum, frame) -> None:
        self._add(sample(0.0))

    def __enter__(self) -> "Speedometer":
        self._add(sample(WINDOW))
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._add(sample(WINDOW))

    def rescale(self, t0: float, t1: float) -> tuple[float, float]:
        """(measured, rescaled) seconds of an op that ran from t0 to t1,
        less the probes that ran inside it."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        measured = (t1 - t0) - sum(self.took[lo:hi])
        lo = bisect.bisect_left(self.at, t0 - WINDOW)
        hi = bisect.bisect_right(self.at, t1 + WINDOW)
        return measured, measured * factor(self.took[lo:hi])
