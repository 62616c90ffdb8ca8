"""Host speed probe: a fixed piece of pure-Python work, timed on a timer.

The speed of this kind of shared host drifts by tens of percent from
second to second and from minute to minute, and the solver slows down
with it.  A probe that walks a table of a few megabytes in random order
slows down with it too.  Sampling the probe on a wall-clock timer while
the solves run, and rescaling their time by
``(REFERENCE_UNIT_S / mean probe unit time) ** SOLVE_EXPONENT``, removes
most of the drift.  The probe shares no code with lexpbs, so a change
to the program cannot move it, and its own time is left out of every
measured interval (see ``HostProbe.clock``).
"""

from __future__ import annotations

import random
import signal
import time
from operator import add

#: Seconds one probe unit took on the reference host, the host of the
#: figures in README.md.  Rescaled times are in its seconds.
REFERENCE_UNIT_S = 2.2e-4

#: The solver slows down more than the probe: over rounds of the same
#: solves on this host, log(solve time) against log(probe unit time)
#: had slopes of 1.2-1.6, at correlations of 0.8-0.99.  Solve times are
#: rescaled with this exponent; set-up times with exponent 1, which
#: fitted them best.
SOLVE_EXPONENT = 1.4

#: Entries in the probe's table (about 15 MB of Python objects).
TABLE_SIZE = 1 << 17

#: During a measured period: SAMPLE_UNITS probe units (about 2 ms)
#: every SAMPLE_INTERVAL_S seconds.
SAMPLE_INTERVAL_S = 0.2
SAMPLE_UNITS = 10

_STEP = tuple(float(k % 7) - 3.0 for k in range(16))


class HostProbe:
    def __init__(self):
        rng = random.Random(7)
        order = list(range(TABLE_SIZE))
        rng.shuffle(order)
        self._table = [(order[i], float(i % 13)) for i in range(TABLE_SIZE)]
        self._pos = 0
        self.probe_s = 0.0  # all probe time so far
        self.units = 0  # all probe units so far
        self._mark = (0.0, 0)

    def _unit(self) -> float:
        table = self._table
        acc = (0.0,) * len(_STEP)
        seen: dict[int, float] = {}
        i = self._pos
        for k in range(200):
            i, v = table[i]
            if k % 4 == 0:
                acc = tuple(map(add, acc, _STEP))
            seen[i] = v
        self._pos = i
        return acc[0] + len(seen)

    def sample(self, units: int = SAMPLE_UNITS) -> None:
        t0 = time.perf_counter()
        for _ in range(units):
            self._unit()
        self.probe_s += time.perf_counter() - t0
        self.units += units

    def clock(self) -> float:
        """perf_counter minus all probe time: intervals measured on
        this clock leave out samples taken inside them."""
        return time.perf_counter() - self.probe_s

    # -- a measured period --------------------------------------------

    def start(self) -> None:
        """Take one sample now and then one every SAMPLE_INTERVAL_S."""
        self._mark = (self.probe_s, self.units)
        self.sample()
        signal.signal(signal.SIGALRM, lambda _sig, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """End the period; the factor that rescales its times to the
        reference host."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.scale_since(self._mark, SOLVE_EXPONENT)

    def scale_since(self, mark: tuple[float, int],
                    exponent: float = 1.0) -> float:
        """The factor that rescales a time measured since `mark`, a
        (probe_s, units) pair, to the reference host."""
        probe_s, units = mark
        unit_s = (self.probe_s - probe_s) / (self.units - units)
        return (REFERENCE_UNIT_S / unit_s) ** exponent
