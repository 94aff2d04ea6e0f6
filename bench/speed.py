"""Times at one fixed CPU speed, from a probe that samples the speed.

The CPUs this benchmark runs on switch between a slow and a fast state
(about 1.7x apart) every few tenths of a second, per CPU and independently,
as other tenants load the host.  A multi-second command's wall time then
varies by 20% or more from one minute to the next, and longer runs do not
average it out because the share of fast time drifts over minutes.

`SpeedProbe` pins the whole benchmark (launcher, every child it starts and
its own sampler thread) to one CPU.  Every INTERVAL_S the sampler runs a
fixed burst of pure-Python work and records its CPU time: the CPU's speed
at that moment is REFERENCE_S / (that CPU time).  Integrating the speed over
an interval turns wall seconds into seconds at the reference speed, i.e.
the time the interval would have taken on a CPU that runs the burst in
REFERENCE_S.  The burst uses only the standard library, so no change to
helpzc can change it, and it runs in the launcher, not in the program's
process.  It takes about 3% of the CPU from the command being timed.
"""

from __future__ import annotations

import bisect
import os
import threading
from fractions import Fraction
from time import perf_counter, sleep, thread_time

INTERVAL_S = 0.025
# CPU time of one burst at the reference speed: about the slow state of the
# 2-vCPU Xeon host this benchmark was written on
REFERENCE_S = 0.0007


def burst() -> int:
    """Fixed work of the same kind as helpzc's: Fraction and dict operations."""
    acc, table = Fraction(0), {}
    for i in range(1, 150):
        acc += Fraction(i % 97, i % 89 + 1)
        table[i % 101] = acc.numerator % 1000
    return len(table)


class SpeedProbe:
    """Context manager: pins this process to one CPU and samples its speed;
    on exit the sampling stops and the process may use its CPUs again."""

    def __init__(self):
        # (perf_counter at the end of a burst, speed, reference seconds
        # accumulated up to that instant); appended by the sampler only
        self._samples: list[tuple[float, float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)
        self._cpus = os.sched_getaffinity(0)
        self.cpu = min(self._cpus)

    def __enter__(self) -> "SpeedProbe":
        # set before the thread starts and before any child, so both inherit it
        os.sched_setaffinity(0, {self.cpu})
        self._thread.start()
        while not self._samples:
            self._stop.wait(INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _sample(self) -> None:
        samples = self._samples
        while True:
            t0 = thread_time()
            burst()
            cpu = thread_time() - t0
            now = perf_counter()
            speed = REFERENCE_S / max(cpu, 1e-6)
            if samples:
                last_t, _, last_work = samples[-1]
                samples.append((now, speed, last_work + speed * (now - last_t)))
            else:
                samples.append((now, speed, 0.0))
            if self._stop.wait(INTERVAL_S):
                return

    def at(self, t: float) -> float:
        """Reference seconds elapsed from the first sample to instant t.

        Between two samples the speed is the later sample's.  Waits for a
        sample after t while sampling runs; once it has stopped, the last
        speed is extended.
        """
        samples = self._samples  # the sampler only appends
        while samples[-1][0] < t and not self._stop.is_set():
            sleep(INTERVAL_S / 4)
        i = bisect.bisect_left(samples, (t,), 0, len(samples))
        if i == len(samples):
            last_t, speed, work = samples[-1]
            return work + speed * (t - last_t)
        t_i, speed, work = samples[i]
        return work - speed * (t_i - t)

    def work(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter instants of any
        process on this machine (perf_counter is CLOCK_MONOTONIC)."""
        return self.at(end) - self.at(start)

    def mean_speed(self) -> float:
        """Mean sampled speed so far, 1.0 being the reference speed."""
        samples = self._samples[:]
        return sum(s for _, s, _ in samples) / len(samples)
