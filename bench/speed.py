"""Times scaled to a nominal CPU speed by a fixed reference workload.

On a shared host the CPU speed a process gets shifts by up to ~40%, for
seconds to minutes at a time, while nothing in the program changes.  So each
timed interval is bracketed by a short reference workload, and its time is
scaled by REF_NOMINAL_S over the mean of the reference times measured just
before and just after it: the result is the interval's time, in seconds, on a
CPU that runs the reference in REF_NOMINAL_S.  The reference is pure Python,
an integer loop and a sweep over a list of floats like the transport kernel's,
because the library's time goes mostly to such loops and their speed tracks
the library's more closely than numpy or memory-bound work does.  It is the
benchmark's own code, so a change to the program changes the interval and
never the reference.
"""

from __future__ import annotations

import random
from time import perf_counter

#: Reference time at the nominal speed; about the median on the 2-vCPU Intel
#: Xeon VM (Python 3.11.7) the seed figures come from.
REF_NOMINAL_S = 0.025
_LOOP = 180_000
_SWEEPS = 40
_RNG = random.Random(0)
_FLOATS = [_RNG.random() for _ in range(2_000)]


def reference_s() -> float:
    """Wall time of the fixed reference workload, about 25 ms."""
    start = perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    rem = _FLOATS[::-1]
    moved = 0.0
    for _ in range(_SWEEPS):
        for i, x in enumerate(_FLOATS):
            take = x if x < rem[i] else rem[i]
            rem[i] -= take * 0.5
            moved += take
    return perf_counter() - start


class Speed:
    """Scales consecutive timed intervals; the reference after one is the next one's before."""

    def __init__(self):
        self.before = reference_s()

    def scale(self, seconds: float) -> float:
        after = reference_s()
        ref = (self.before + after) / 2
        self.before = after
        return seconds * REF_NOMINAL_S / ref
