"""Host-speed sampling for the timed regenerations.

The benchmark runs on a few vCPUs of a shared host, and the speed of one
serial Python process on them is not steady: the same regeneration of
the same seed took 8.1-11.4 s back to back (a third apart), in stretches
of fast and slow that last from seconds to minutes.  A run cannot average
that away, because a slow minute covers a whole run.

:class:`HostSpeed` measures that speed while the program runs.  A
``SIGALRM`` every :data:`SAMPLE_INTERVAL_S` interrupts the program
between bytecodes, and the handler times one ``refloop.Sampler.sample``
in the same process, so the samples see the slow-downs the program
sees.  :meth:`HostSpeed.normalize` removes the sampling time from a wall
time and scales the rest to the reference speed with
``refloop.to_reference``.  About 1.6% of the run is spent sampling, and
all of it is taken out again.

The program's results do not depend on it: the handler touches nothing
but its own samples.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import refloop

#: Seconds between samples while the program runs.
SAMPLE_INTERVAL_S = 0.2


class HostSpeed:
    """Samples the host's speed for the duration of a ``with`` block.

    One sample is taken on entry, before the caller starts its clock, so
    every block has at least one.
    """

    def __init__(self) -> None:
        self._sampler = refloop.Sampler()
        #: (start, seconds) of every sample, in perf_counter time.
        self.samples: List[Tuple[float, float]] = []

    def _sample(self, *_signal_args) -> None:
        self.samples.append((time.perf_counter(), self._sampler.sample()))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def sampling_s(self, start: float, end: float) -> float:
        """Seconds spent sampling inside the interval ``[start, end]``."""
        return sum(seconds for at, seconds in self.samples if start <= at <= end)

    def mean_sample_s(self) -> float:
        return statistics.fmean(seconds for _, seconds in self.samples)

    def normalize(self, start: float, end: float) -> float:
        """The program's time in ``[start, end]`` at the reference speed."""
        net = end - start - self.sampling_s(start, end)
        return refloop.to_reference(net, self.mean_sample_s())
