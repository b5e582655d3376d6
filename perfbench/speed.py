"""The machine's speed, sampled while a workload runs.

A shared host runs the same code up to twice as slow for stretches of
seconds to minutes, and the slow stretches come and go between runs, so
raw wall times of ten runs spread past any useful bound.  The benchmark
therefore runs a fixed probe every PROBE_PERIOD_S of wall time while it
measures, from a SIGALRM handler in the measuring process, so inside long
operations too.  The probe is a small kernel of the kinds of work the
solver does: numpy on 4x4 matrices (an eigendecomposition, Boltzmann
weights, a density matrix, a few scalar measures), and plain Python (small
objects, method calls, a caught exception, float formatting as in a CSV
row).  It is written here and shares nothing with the package.  The time the probe takes inside an
operation is taken out of the operation's time, and the rest is rescaled by
the probe samples taken during it and on either side,

    scaled time = time * PROBE_REF_S / (mean of those samples),

which is its wall time on a machine where the probe takes PROBE_REF_S.  A
change to the package moves the scaled times as it moves the wall times;
a slow stretch of the machine moves the probe with them and cancels.  A
sample is the probe's CPU time, not its wall time, so a probe that waits for
a processor (pool workers busy on both) does not read as a slow machine.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

# about the probe's median time on the 2-CPU machine the benchmark was written
# on; scaled times read as wall times on that machine at its typical speed
PROBE_REF_S = 8.0e-4
# a sample every PROBE_PERIOD_S of wall time, the median of PROBE_REPEATS
# timings of the kernel (about 2.4 ms in all, so the probe takes about 2.5%
# of a run)
PROBE_PERIOD_S = 0.1
PROBE_REPEATS = 3

_H = np.array([[0.9, 0.0, 0.0, 0.0],
               [0.0, -0.4, 0.7, 0.0],
               [0.0, 0.7, -0.2, 0.0],
               [0.0, 0.0, 0.0, 1.3]])
_BETAS = tuple(0.2 + 0.35 * i for i in range(12))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y)


def _kernel() -> float:
    total = 0.0
    for beta in _BETAS:
        w, v = np.linalg.eigh(_H)
        p = np.exp(-beta * (w - w[0]))
        p /= p.sum()
        rho = (v * p) @ v.T
        c = 2.0 * (abs(float(rho[1, 2])) - math.sqrt(float(rho[0, 0]) * float(rho[3, 3])))
        total += max(0.0, c) + float(np.trace(rho @ rho))
    for i in range(400):
        total += _Point(0.5 * i, 1.0 / (i + 1)).norm()
        try:
            if i % 97 == 0:
                raise ValueError(i)
        except ValueError:
            total += 1.0
    return total + len(",".join("%.6g" % (total / (j + 1)) for j in range(20)))


def probe() -> float:
    """One sample: the median CPU time of PROBE_REPEATS runs of the kernel."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.thread_time()
        _kernel()
        times.append(time.thread_time() - t0)
    return statistics.median(times)


class Sampler:
    """Probe samples with the times they were taken, the wall time the probe
    took (`spent`), and the scaling of a time interval by the samples in and
    around it.  Use as a context manager around the measured code, in the
    main thread; an operation's own time is its wall time less the growth of
    `spent` over it."""

    def __init__(self):
        self.at: list = []
        self.value: list = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        value = probe()
        self.at.append(t0)
        self.value.append(value)
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float, end: float) -> float:
        """PROBE_REF_S over the mean of the samples taken in [start, end]
        and of the last sample before it and the first after it."""
        lo = max(0, bisect.bisect_right(self.at, start) - 1)
        hi = min(len(self.at), bisect.bisect_left(self.at, end) + 1)
        return PROBE_REF_S / statistics.fmean(self.value[lo:hi])
