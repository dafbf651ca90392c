"""Machine-speed references for reporting timings at a fixed speed.

On a shared host the same work can take a quarter longer from one minute to
the next. A run therefore times a fixed reference task between its
operations (about every PROBE_INTERVAL_S) and scales each measured time by
the reference's nominal duration over its duration around that moment.
Neither reference touches the program under test, so a change to the
program cannot move them:

- reference_work, pure Python integer and list work, for work done in this
  process;
- bare_interpreter, a ``python -c pass`` subprocess, for subprocess runs,
  whose start-up time drifts with the host independently of its CPU speed.
"""

from __future__ import annotations

import bisect
import subprocess
import sys
import time

from .measure import median

REFERENCE_NOMINAL_S = 0.0013  # reference_work() duration at the reported speed
BARE_NOMINAL_S = 0.075  # bare_interpreter() duration at the reported speed
PROBE_INTERVAL_S = 0.05
WINDOW = 5  # probes around a moment whose median gives its speed


def reference_work() -> int:
    """Fixed work: trial division of 60 odd integers near 10^6, then the
    product of two integer coefficient lists of length 40."""
    acc = 0
    for n in range(1_000_003, 1_000_003 + 120, 2):
        m = n
        d = 3
        while d * d <= m:
            while m % d == 0:
                m //= d
                acc += d
            d += 2
        acc += m
    a = [(7 * i) % 23 - 11 for i in range(40)]
    b = [(5 * i) % 19 - 9 for i in range(40)]
    prod = [0] * 79
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return acc + sum(prod)


def bare_interpreter() -> None:
    """Start a Python interpreter that runs nothing, and wait for it."""
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, timeout=60)


class SpeedProbe:
    """Reference timings taken during a run, and the scale factors they give."""

    def __init__(
        self,
        reference=reference_work,
        nominal_s: float = REFERENCE_NOMINAL_S,
        interval_s: float = PROBE_INTERVAL_S,
    ) -> None:
        self.reference = reference
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.times: list[float] = []  # midpoint of each probe
        self.durations: list[float] = []
        self._due = 0.0

    def probe(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            self.reference()
            t1 = time.perf_counter()
            self.times.append((t0 + t1) / 2)
            self.durations.append(t1 - t0)
        self._due = time.perf_counter() + self.interval_s

    def tick(self) -> None:
        """Probe if the interval has passed since the last probe."""
        if time.perf_counter() >= self._due:
            self.probe()

    def scale_at(self, t: float) -> float:
        """The nominal duration over the median duration of the WINDOW
        probes nearest to time t."""
        n = len(self.durations)
        if n == 0:
            raise ValueError("no reference probes taken")
        i = bisect.bisect(self.times, t)
        lo = max(0, min(i - WINDOW // 2, n - WINDOW))
        return self.nominal_s / median(self.durations[lo : lo + WINDOW])

    def scale(self) -> float:
        """Scale factor from every probe taken."""
        return self.nominal_s / median(self.durations)
