"""A gauge of the machine's current speed, read while the program runs.

The benchmark's host is a shared VM whose speed drifts by tens of percent
within seconds and over minutes.  ``run.py`` pins itself, and so every
process it starts, to one CPU.  While a unit of work runs there, a
``Sampler`` thread in ``run.py`` wakes every PERIOD_S seconds and times a
fixed computation of about half a millisecond in CPU time of its own thread.
The mean of those samples is the machine's speed over the unit, and
``wall_rel`` divides the unit's wall time by it, which cancels the drift
that both see.  The computation depends on nothing in exitchoice, so no
change to the program moves it.  Its mix imitates the program's costs:
parsing CSV text into floats, grouping in a dict, and ``eigvalsh`` and
``exp`` on small numpy arrays.
"""

from __future__ import annotations

import threading
import time

import numpy as np

_rng = np.random.default_rng(20211022)
_TEXT = [",".join(f"{v:.17g}" for v in _rng.uniform(-5.0, 5.0, 8))
         for _ in range(40)]
_MATS = [m @ m.T + np.eye(8) for m in _rng.normal(size=(12, 8, 8))]
_COEF = _rng.normal(size=(4, 8))
#: Seconds between samples; one sample takes about 0.5 ms on a 2-vCPU Xeon
#: VM, so the sampler takes about 0.5% of the CPU from the unit.
PERIOD_S = 0.1


def measure() -> float:
    """CPU seconds of this thread spent on one pass of the computation."""
    t0 = time.thread_time()
    rows = [tuple(float(x) for x in line.split(",")) for line in _TEXT]
    groups: dict = {}
    for i, row in enumerate(rows):
        key = (i % 7, row[0] > 0.0)
        groups[key] = groups.get(key, 0.0) + row[1]
    for m in _MATS:
        np.linalg.eigvalsh(m)
        np.exp(_COEF @ m[:, 0])
    return time.thread_time() - t0


class Sampler(threading.Thread):
    """Collects ``measure()`` samples every PERIOD_S until ``stop()``."""

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[float] = []
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(PERIOD_S):
            self.samples.append(measure())

    def stop(self) -> list[float]:
        self._halt.set()
        self.join()
        return self.samples
