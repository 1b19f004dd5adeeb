"""Machine-speed correction of measured times.

The shared 2-vCPU virtual machine (Intel Xeon) this benchmark was built
on changes speed by up to 2x over seconds to minutes: a fixed loop of
small numpy calls, timed back to back, ran between 0.64x and 1.54x of its
median, while steal time stayed flat.  CPU time slows down with wall
time, so neither is steady from one run to the next.

A :class:`Speedometer` samples the speed on the benchmark's own thread
about ten times a second.  A SIGALRM handler times a fixed calibration
kernel, which uses numpy only and no code of the package, so no change
to the package can speed it up.  A measured interval is then re-expressed
in reference seconds: each stretch between two samples is scaled by
``REFERENCE_KERNEL_S`` over the kernel time around it.  The kernel's own
time is left out, so the correction adds no time of its own to the
result.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# About the median time of ``kernel()`` while a workload runs on that
# machine (Python 3.11, numpy 2.4); a reference second is a second at that
# speed.
REFERENCE_KERNEL_S = 1.7e-3
PERIOD_S = 0.1

_X = np.linspace(0.1, 3.0, 8)


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small numpy
    calls, the same mix as the package's ODE right-hand sides."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(150):
        acc += float(np.sum(np.exp(-_X * (i * 1e-3)) * np.sin(_X + i)))
    return time.perf_counter() - t0


def reference_seconds(samples) -> tuple:
    """(elapsed s, reference s) between the first and last sample.

    ``samples`` are (start, kernel seconds) pairs in time order; the
    stretch between two kernels runs at the mean speed of the two.
    """
    s = np.asarray(samples, dtype=float)
    starts, ks = s[:, 0], s[:, 1]
    gaps = starts[1:] - (starts[:-1] + ks[:-1])
    speed = 0.5 * (ks[1:] + ks[:-1])
    return float(gaps.sum()), float(np.sum(gaps * (REFERENCE_KERNEL_S / speed)))


class Speedometer:
    """Samples the kernel from ``start`` to ``stop`` on the main thread."""

    def __init__(self):
        self.samples: list = []
        self._previous = None

    def _sample(self, *_) -> None:
        t = time.perf_counter()
        self.samples.append((t, kernel()))

    def start(self) -> None:
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple:
        """Stops sampling.  Returns (elapsed s, reference s, kernel s): the
        time from start to stop without the kernel's, that time in
        reference seconds, and the kernel time spent between the two."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        elapsed, ref = reference_seconds(self.samples)
        return elapsed, ref, float(sum(k for _, k in self.samples[1:-1]))
