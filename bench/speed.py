"""Host speed probes.

The shared hosts this benchmark runs on change speed by 20 to 40 % over
spells of seconds to minutes, which swamps changes in the program.  So a
fixed load is timed every ``EVERY_S`` seconds between operations, and each
operation's wall time is scaled by the probes just before and just after
it to seconds at a reference speed.  Two loads, because slow spells slow
process start-up more than computation:

* ``COMPUTE``: pure Python like polybase's inner loops (Fraction
  arithmetic and dict traffic), for work done in this process; 1.25 ms at
  the reference speed.
* ``SPAWN``: a bare interpreter start (``python3 -S -c pass``), for child
  processes; 11 ms at the reference speed.

The program never runs during a probe, so a change in the program cannot
move the scale.
"""

from __future__ import annotations

import subprocess
import sys
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.25


def _compute() -> None:
    acc = Fraction(0)
    memo = {}
    for i in range(1, 250):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        memo[i & 63] = acc


def _spawn() -> None:
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)


# (load, seconds per load at the reference speed, loads per probe)
COMPUTE = (_compute, 0.00125, 3)
SPAWN = (_spawn, 0.011, 1)


class Speed:
    def __init__(self, probe=COMPUTE):
        self.load, self.reference_s, self.repeats = probe
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.probe()

    def probe(self) -> None:
        """Time the load and keep the fastest of ``repeats`` tries, which
        drops one-off stalls but not a slow spell."""
        self.starts.append(perf_counter())
        fastest = None
        for _ in range(self.repeats):
            start = perf_counter()
            self.load()
            took = perf_counter() - start
            fastest = took if fastest is None else min(fastest, took)
        self.durations.append(fastest)

    def tick(self) -> None:
        """Probe if the last probe is EVERY_S old."""
        if perf_counter() - self.starts[-1] >= EVERY_S:
            self.probe()

    def scaled(self, start: float, took: float) -> float:
        """took, an interval that began at start, in reference seconds.

        Needs a probe after the interval (call ``probe`` once at the end).
        """
        before = bisect_right(self.starts, start) - 1
        after = min(before + 1, len(self.starts) - 1)
        return took * 2 * self.reference_s / (self.durations[before] + self.durations[after])
