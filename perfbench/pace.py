"""Host pace: how much slower than the reference host the CPU runs now.

The reference host is a 2-vCPU VM that shares its cores with other
tenants.  While a neighbour is busy, interpreter code runs about twice
as slow and numpy code about 1.3 times as slow, in phases lasting from
under a second to several minutes; CPU time follows wall time, so the
process is slowed, not descheduled.  A timing taken over a whole run
follows the share of the run that fell in slow phases.

``Pace.sample`` times two fixed reference loops, one interpreter-bound
and one numpy-bound, and returns the mean of their slowdowns against
their times on the uncontended reference host.  The benchmark samples
the pace around every chunk of ops and divides each op's time by the
mean pace before and after its chunk, which expresses op times at the
reference host's uncontended speed.  The loops do not touch the program
under test, so a change to the program moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# The loops' times on the reference host while no neighbour was busy
# (the lower end of their timings there); only their ratio to the
# times measured now matters.
REF_PYTHON_S = 0.00065
REF_NUMPY_S = 0.00150


def _python_loop() -> int:
    d: dict[int, int] = {}
    n = 0
    for i in range(3000):
        d[i % 97] = d.get(i % 97, 0) + i
        n += len(str(i))
    return n


class Pace:
    def __init__(self):
        self._array = np.arange(200_000, dtype=np.int64) % 1013
        self.samples: list[float] = []

    def _numpy_loop(self) -> int:
        return int(((self._array * 3 + 7) % 11 == 3).sum())

    def sample(self) -> float:
        """The host's current slowdown: 1.0 at the reference speed."""
        t0 = time.perf_counter()
        _python_loop()
        t1 = time.perf_counter()
        self._numpy_loop()
        t2 = time.perf_counter()
        slow = ((t1 - t0) / REF_PYTHON_S + (t2 - t1) / REF_NUMPY_S) / 2
        self.samples.append(slow)
        return slow
