"""Host-speed probes taken while the program runs, and times scaled to a
reference speed.

The CPU speed of a shared host moves by up to a factor of two in phases
that last from a second to minutes, so a raw time measured in one run
says as much about the host as about the program.  The probe is a fixed
pure-Python loop doing the same kind of interpreter work as tftflip
(function calls, integer arithmetic, list and dict lookups).  It
allocates no container objects, so it does not move the program's
garbage-collector thresholds, and it does not call tftflip, so a change
to the program cannot change the probe.  A time at the reference speed
is the raw time scaled by ``REF_S / probe loop time``: the time the
work would take at the speed at which one probe loop takes exactly
``REF_S`` seconds.
"""

from __future__ import annotations

import bisect
import signal
import time

# One probe loop takes about REF_S on a 2.1 GHz Xeon vCPU in its usual
# (slower) phase, so reference-speed times are close to the raw times
# measured there.
REF_S = 5e-4
LOOP_STEPS = 2200
TRIES = 3  # a probe is the fastest of TRIES loops: an interrupt hits only one
PERIOD_S = 0.05  # the host speed moves within a second

_TABLE = list(range(97, 353))
_LOOKUP = {i: i * 7 for i in range(256)}


def _step(x: int, i: int, table: list, lookup: dict) -> int:
    return (x * 31 + table[i & 255] + lookup[x & 255]) & 0xFFFFF


def probe() -> float:
    """Seconds one probe loop takes now."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(TRIES):
        start = clock()
        x = 0
        for i in range(LOOP_STEPS):
            x = _step(x, i, _TABLE, _LOOKUP)
        best = min(best, clock() - start)
    return best


class Sampler:
    """While entered, probes the host speed on entry, on exit and every
    PERIOD_S of wall time in between, from a SIGALRM handler.  The
    handler runs at the interpreter's next bytecode, inside whatever
    the program is doing, so a long call is sampled along its length,
    not only at its ends.  ``measure`` takes the probes back out."""

    def __init__(self):
        self.starts = []  # time.perf_counter() at each probe's start
        self.ends = []  # ... and at its end
        self.loops = []  # seconds of one probe loop, per probe
        self._busy = False

    def _take(self, *_) -> None:
        if self._busy:  # a signal that arrives during a probe
            return
        self._busy = True
        start = time.perf_counter()
        self.loops.append(probe())
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds of the interval from ``start``
        to ``end`` taken while entered, without the probes inside it.
        Between two probes the speed is the mean of the two."""
        raw = scaled = 0.0
        k = max(bisect.bisect_right(self.ends, start) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < end:
            overlap = min(end, self.starts[k + 1]) - max(start, self.ends[k])
            if overlap > 0:
                raw += overlap
                scaled += overlap * 2 * REF_S / (self.loops[k] + self.loops[k + 1])
            k += 1
        return raw, scaled
