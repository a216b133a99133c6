"""Wall time corrected for the machine's speed, by an interleaved probe.

On a small shared virtual machine the same work runs up to twice as slow
at some moments as at others, with CPU time still equal to wall time: the
vCPU itself runs slower, for seconds to minutes at a time.  A probe timed
before or after the program misses these phases, and a probe in another
process runs on the other vCPU, whose phases are its own.  So the probe
runs inside the timed interval, in the same thread: a SIGALRM handler
times a fixed pure-Python heap computation (random draws, heap pushes
and pops, the shape of the simulator's event loop) every INTERVAL_S of
wall time, and once at each end.

    with Paced() as p:
        work()
    p.seconds   # wall time of work(), less the probes, at reference speed

`seconds` is the measured wall time, less the time the probes took,
times the mean over probes of PROBE_REF_S / probe duration: the wall
time the work would have taken at the speed where one probe takes
PROBE_REF_S.  The probe imports nothing the program imports beyond the
standard library's `heapq` and `random`, so it can run while `import
tvqueue` is timed.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

INTERVAL_S = 0.05
# one probe's duration at the reference speed: its median on a 2-vCPU
# Intel Xeon virtual machine with Python 3.11 (the README's machine)
PROBE_REF_S = 0.0025
_HEAP_SIZE, _STEPS = 20000, 1200

_rng = random.Random(20260)
_BASE = [(_rng.random(), i) for i in range(_HEAP_SIZE)]
heapq.heapify(_BASE)


def probe() -> float:
    """Duration (s) of one fixed heap computation."""
    start = time.perf_counter()
    h = list(_BASE)
    r = random.Random(1)
    for _ in range(_STEPS):
        t, k = heapq.heappop(h)
        heapq.heappush(h, (t + r.expovariate(1.0), k))
    return time.perf_counter() - start


class Paced:
    """Times a block with the probe interleaved; see the module docstring."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []   # (start, duration)
        self._start = self._end = 0.0

    def _tick(self, signum, frame):
        self.probes.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)
        return False

    @property
    def raw_seconds(self) -> float:
        """Wall time of the block less the probes that ran inside it."""
        inside = sum(d for t, d in self.probes if self._start <= t < self._end)
        return self._end - self._start - inside

    @property
    def seconds(self) -> float:
        scale = sum(PROBE_REF_S / d for _, d in self.probes) / len(self.probes)
        return self.raw_seconds * scale
