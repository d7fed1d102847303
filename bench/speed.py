"""Speed probe: how fast the CPU ran for this process while it was timed.

On a shared host the speed a process gets drifts by a third or more
between runs a few minutes apart (busy neighbours on the same physical
cores): the same CLI pass reads 1.5 s in one run and 2.1 s in the next.
The probe samples that speed inside the process being measured: an
interval timer interrupts the main thread every INTERVAL_S and the
handler times a fixed pure-Python kernel. A time divided by the mean
kernel time over the same interval, times NOMINAL_S, is a time at a
fixed reference speed; raw wall-clock times are recorded beside it.

The handler's own time is subtracted from what it interrupted.
Handlers run between bytecodes, so they never split a numpy call. This
module imports nothing outside the standard library, so a fresh
interpreter can load it before timing a cold import.

    python3 bench/speed.py MODULE   # prints [seconds, reference seconds]
"""

from __future__ import annotations

import importlib
import json
import signal
import statistics
import sys
import time

INTERVAL_S = 0.04
# Mean kernel time while CLI jobs run, on a shared 2-core Intel Xeon VM
# (Python 3.11.7); the unit in which normalized times are given.
NOMINAL_S = 1.4e-3


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and dictionary updates."""
    table: dict[int, int] = {}
    for i in range(7000):
        key = i % 97
        table[key] = table.get(key, 0) + i * i
    return sum(table.values())


class SpeedProbe:
    """Context manager that times `kernel` every INTERVAL_S of wall time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.cost = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.cost += elapsed

    def factor_since(self, first: int) -> float:
        """Reference seconds per measured second over samples[first:]."""
        return NOMINAL_S / statistics.fmean(self.samples[first:])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_import(module: str) -> tuple[float, float]:
    """(seconds, reference seconds) of importing `module`, probe excluded."""
    probe = SpeedProbe()
    probe.sample()
    with probe:
        cost = probe.cost
        start = time.perf_counter()
        importlib.import_module(module)
        elapsed = time.perf_counter() - start - (probe.cost - cost)
    return elapsed, elapsed * probe.factor_since(0)


if __name__ == "__main__":
    print(json.dumps(timed_import(sys.argv[1])))
