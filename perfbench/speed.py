"""Wall time scaled to a fixed machine speed, measured inside the timed process.

The machines this benchmark runs on are shared: the speed of a pure-Python
loop on them drifts by up to 2x within seconds, so a job's raw wall time
says as much about the other tenants as about lieprop.  A `Sampler` runs a
fixed calibration kernel on every SIGALRM of an interval timer, in the
process being timed and between its bytecodes, and records how long each
run of the kernel took.  `scaled(a, b)` then counts every stretch of
[a, b] between two kernel runs at the speed of the kernel run that ends it:

    scaled = sum over stretches of  length * TAU_REF / tau

where tau is that kernel run's duration.  The kernel's own time is left
out.  The result is in seconds of a machine that runs the kernel in
TAU_REF seconds.  It needs no threads and no second process; at the job
interval the kernel takes about 1% of the time.
"""

import signal
import time
from fractions import Fraction

TAU_REF = 0.0005        # seconds one kernel run takes at the reference speed
SETUP_INTERVAL_S = 0.01  # between kernel runs while the interpreter sets up
JOB_INTERVAL_S = 0.05    # between kernel runs during a job


def kernel():
    """Fixed work in the mix lieprop does: small Fractions, tuples, dicts."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 200):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 13, i % 11)
        table[key] = table.get(key, 0) + 1
    return acc, len(table)


class Sampler:
    """Kernel runs on SIGALRM: `samples` holds (start, duration) pairs."""

    def __init__(self, clock=time.monotonic, work=kernel):
        self.clock = clock
        self.work = work
        self.samples = []

    def _tick(self, signum, frame):
        start = self.clock()
        self.work()
        self.samples.append((start, self.clock() - start))

    def start(self, interval):
        """Start sampling, or change the interval of a running sampler."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def kernel_s(self, a, b):
        """Seconds of kernel runs that started in [a, b)."""
        return sum(tau for start, tau in self.samples if a <= start < b)

    def scaled(self, a, b):
        """Seconds at the reference speed spent in [a, b], kernel runs left out.

        A stretch after the last kernel run is counted at that run's speed.
        """
        if not self.samples:
            raise ValueError("no kernel run was recorded")
        total = 0.0
        prev_end = a
        for start, tau in self.samples:
            if start + tau <= a:
                continue
            if start >= b:
                return total + max(0.0, b - prev_end) * TAU_REF / tau
            total += max(0.0, start - prev_end) * TAU_REF / tau
            prev_end = max(prev_end, start + tau)
        return total + max(0.0, b - prev_end) * TAU_REF / self.samples[-1][1]
