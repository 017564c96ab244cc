"""A fixed probe of the machine's speed, to scale measured times to a
reference speed.

On a shared virtual machine one vCPU's speed can change by a third or more
from one second to the next and stay changed for minutes, so the same pass
over a workload takes a third longer.  The probe is a fixed mix of
interpreter and numpy work that does not touch the package.  If a stretch
of time ``t`` holds probes that took ``p_i`` seconds, the same work would
have taken ``t * REFERENCE_S * mean(1 / p_i)`` at the speed at which the
probe takes ``REFERENCE_S``.  Program changes move that scaled time; the
machine's changes of speed mostly cancel.

:class:`Sampler` runs the probe from a timer signal every ``INTERVAL_S``
seconds, so the samples are spread evenly over the time however long the
operations are; ``probe()`` times it directly.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# probe seconds at the reference speed: the fast state of a 2-vCPU x86-64
# VM (Python 3.11, numpy 2.4), so scaled times read close to measured ones
# there
REFERENCE_S = 0.0007
# seconds between two samples of a Sampler: about 2% of the time goes to
# the probe, which callers leave out of their times
INTERVAL_S = 0.05

# fixed, scrambled values (numpy.random would add its import to set-up)
_MATRIX = (np.arange(64 * 64) * 7919 % 10007).reshape(64, 64) / 10007.0


def _work() -> float:
    counts: dict = {}
    total = 0
    for i in range(2_500):
        key = (i & 63, i % 3)
        counts[key] = counts.get(key, 0) + 1
        total += (i * i) % 7
    x = _MATRIX
    for _ in range(3):
        x = np.minimum(x, x.T) + 0.5
        np.argsort(x, axis=1)
    return total + float(x.sum())


def _timed_work() -> float:
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def probe(repeats: int) -> float:
    """Median seconds of ``repeats`` timings of the probe."""
    return statistics.median(_timed_work() for _ in range(repeats))


def scale(seconds: float, probes) -> float:
    """``seconds`` of work timed alongside ``probes`` (probe durations spread
    evenly over it), at the reference speed."""
    return seconds * REFERENCE_S * statistics.fmean(1 / p for p in probes)


class Sampler:
    """While entered, times the probe every ``interval`` seconds from a
    ``SIGALRM`` handler; ``samples`` holds the probe times and ``spent``
    their sum, which callers subtract from the times they take."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        seconds = _timed_work()
        self.samples.append(seconds)
        self.spent += seconds

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
