"""Reference-normalised timing.

The benchmark runs on shared 2-core virtual machines whose CPU speed drifts
by 30-60% within tens of seconds as neighbours load the host (see NOTES.md).
A median over iterations cannot remove a slowdown that lasts a whole run.
So, while a unit of work runs, an interval timer interrupts it every
SAMPLE_PERIOD_S and times a short fixed reference computation on the same
CPU.  The unit's time, less the time spent sampling, is rescaled by how
fast the reference ran meanwhile:

    normalised = raw * NOMINAL_REF_S * mean(1 / reference time of each sample)

A normalised time is in seconds at the speed at which the reference takes
NOMINAL_REF_S.  A change to theta_forms cannot change the reference, so a
regression still shows in full, while host slowdowns cancel.  Raw
wall-clock times are kept and printed beside the normalised ones.
"""

from __future__ import annotations

import signal
import tracemalloc
from fractions import Fraction
from statistics import fmean
from time import perf_counter

# Reference time on an unloaded 2-core Xeon VM (CPython 3.11).
NOMINAL_REF_S = 0.00075
SAMPLE_PERIOD_S = 0.02


def reference_work() -> int:
    """Fixed interpreter work in the library's mix: Fraction arithmetic,
    dicts keyed by tuples, sorting and integer recursion."""
    table: dict[tuple, int] = {}
    for i in range(1, 120):
        x = Fraction(i, i + 7) * Fraction(3, 2 * i + 1) + Fraction(1, i)
        key = (i % 13, i % 7, i)
        table[key] = table.get(key[:2] + (0,), 0) + x.denominator % 97
    order = sorted(table.items(), key=lambda kv: (kv[0][1], kv[0][0], -kv[1]))

    def descend(depth: int, rem: int) -> int:
        if depth == 0:
            return 1
        return sum(descend(depth - 1, rem - t * t) for t in range(-2, 3) if t * t <= rem)

    return len(order) + descend(4, 8)


def reference_speed(samples: int = 5) -> float:
    """Mean of 1 / reference time over a few back-to-back samples."""
    out = []
    for _ in range(samples):
        t0 = perf_counter()
        reference_work()
        out.append(1 / (perf_counter() - t0))
    return fmean(out)


def normalise(raw: float, speeds) -> float:
    return raw * NOMINAL_REF_S * fmean(speeds)


class Clock:
    """Raw and normalised seconds per named lap, sampled by SIGALRM; counts.

    Use as a context manager around one pass of a workload."""

    def __init__(self):
        self.raw: dict[str, float] = {}
        self.norm: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self._speeds: list[float] = []
        self._sampling_s = 0.0
        self._in_sample = False

    def _sample(self):
        self._in_sample = True
        t0 = perf_counter()
        reference_work()
        t1 = perf_counter()
        self._speeds.append(1 / (t1 - t0))
        self._sampling_s += perf_counter() - t0
        self._in_sample = False

    def _on_alarm(self, *_):
        # tracemalloc (traced pass only) slows the reference as much as the
        # work, so samples taken under it would cancel that cost; drop them.
        if not self._in_sample and not tracemalloc.is_tracing():
            self._sample()

    def __enter__(self) -> "Clock":
        self._sample()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._t0 = perf_counter()
        self._sampling_s = 0.0
        return self

    def __exit__(self, *exc):
        self.lap("rest")
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def lap(self, name: str):
        """Close the unit of work that started at the previous lap."""
        raw = perf_counter() - self._t0 - self._sampling_s
        self._sample()
        speeds, self._speeds = self._speeds, self._speeds[-1:]
        self.raw[name] = self.raw.get(name, 0.0) + raw
        self.norm[name] = self.norm.get(name, 0.0) + normalise(raw, speeds)
        self._sampling_s = 0.0
        self._t0 = perf_counter()
