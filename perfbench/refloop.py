"""Fixed loops whose duration measures the host's speed.

``hostspeed.HostSpeed`` runs :meth:`Sampler.sample` while the program runs, and
``probe.py`` runs :func:`core_sample` inside each set-up probe.  This
module imports nothing beyond ``time``, so a probe can load it without
adding to the import time it measures.

One sample reads 6,000 random slots of a 400,000-float list, which
misses the core's private caches as the program's own data does, and
then runs a short dictionary loop that stays in them.  Its time moves
with the program's.  Over 33 back-to-back regenerations of one seed at
20 requests, whose wall times had a coefficient of variation of 18%, the
program's time went as the mean sample time to the power 0.97 on
``fig13_schemes`` and 1.02 on ``table3`` (correlation 0.98), so a plain
ratio corrects it: the corrected times varied 4.0% and 3.3%.  The
dictionary loop alone gave powers of 1.26 and 1.27, because code that
stays in the private caches slows less than the program does when the
host is busy.

Set-up is another matter: importing the program slows less than either
loop.  Over 30 fresh probes whose set-up times varied 15.7%, scaling by
the dictionary loop alone (:func:`core_sample`) left 10.6% and scaling
by :meth:`Sampler.sample` left 24.8%; the latter's time in a fresh, nearly empty
process swings with whatever else holds the shared last-level cache.
"""

from time import perf_counter

#: Floats in the list the sample reads from.
SLOTS = 400_000
#: Random reads per sample.
READS = 6_000
#: Turns of the dictionary loop per sample.
TURNS = 8_000
#: Turns of the dictionary loop per core sample.
CORE_TURNS = 20_000
#: Seconds one sample takes at the reference speed: the median sample
#: during regenerations on a 2-vCPU 2.0 GHz Xeon VM under Python 3.11.
NOMINAL_S = 3.1e-3
#: The same for a core sample, taken in the set-up probes.
CORE_NOMINAL_S = 2.8e-3


def _turns(count: int) -> int:
    total = 0
    table = {}
    for i in range(count):
        total += i * i % 7
        table[i & 255] = total
    return total


class Sampler:
    """The full sample and the data it reads (about 13 MB)."""

    def __init__(self) -> None:
        x = 1
        self._index = []
        for _ in range(READS):
            x = (x * 1103515245 + 12345) % 2**31
            self._index.append(x % SLOTS)
        self._values = [float(i) for i in range(SLOTS)]
        self.sample()  # so that no kept sample pays for first use

    def sample(self) -> float:
        """Run the loop once; returns its duration in seconds."""
        values = self._values
        start = perf_counter()
        acc = 0.0
        for i in self._index:
            acc += values[i] * 0.5
        _turns(TURNS)
        return perf_counter() - start


def core_sample() -> float:
    """Run the dictionary loop alone; returns its duration in seconds."""
    start = perf_counter()
    _turns(CORE_TURNS)
    return perf_counter() - start


def to_reference(seconds: float, sample_s: float, nominal_s: float = NOMINAL_S) -> float:
    """``seconds`` measured while a sample took ``sample_s``, scaled to
    the reference speed, at which it takes ``nominal_s``."""
    return seconds * nominal_s / sample_s
