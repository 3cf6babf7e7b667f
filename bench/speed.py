"""Machine-speed probe, so that times measured on a shared machine compare.

On a small shared virtual machine the same interpreter run can take 1.5x as
long from one minute to the next, because other tenants take the cores'
shared resources, and there are no hardware counters to count cycles
instead.  The probe runs a fixed pure-Python loop (no ``bwb`` code) of
about half a millisecond on a wall-clock timer every 50 ms, and records how
long it took.  The (trimmed) mean over an interval, divided by
``NOMINAL_NS``, is the machine's slowdown during it; a measured time divided by the slowdown is
the time at nominal speed.  :meth:`SpeedProbe.clock` leaves the probe's own
time out, so it is charged to no measurement.
"""

from __future__ import annotations

import signal
import statistics
import time

# Probe duration that counts as nominal speed (slowdown 1): about its
# typical duration on the 2-core x86-64 machine (CPython 3.11) the benchmark
# was tuned on, where it ranged over 0.65x..1.3x of this.
NOMINAL_NS = 400_000
INTERVAL_S = 0.05


def _loop() -> int:
    acc = 0
    seen: dict = {}
    for i in range(600):
        key = (i % 13, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += len(tuple(range(i % 5))) + (i * i) % 11
    return acc + len(seen)


class SpeedProbe:
    """Samples the probe loop's duration on a timer and on demand."""

    def __init__(self):
        self.samples: list[int] = []
        self.busy_ns = 0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter_ns()
        _loop()
        took = time.perf_counter_ns() - t0
        self.samples.append(took)
        self.busy_ns += took

    def clock(self) -> int:
        """perf_counter_ns minus the time spent in probes so far."""
        busy = self.busy_ns
        return time.perf_counter_ns() - busy

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, first: int = 0) -> float:
        """Probe duration over samples[first:], over NOMINAL_NS.

        The mean follows the machine through slow and fast stretches; it is
        trimmed by a tenth at each end because a sample that an interrupt or
        another process cut into stretches the probe far more than it
        stretches the workload around it."""
        window = sorted(self.samples[first:])
        cut = len(window) // 10
        window = window[cut:len(window) - cut]
        return statistics.fmean(window) / NOMINAL_NS if window else 1.0
