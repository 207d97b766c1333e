"""Host speed during a timed region, from an interleaved reference loop.

A shared host changes speed by up to 1.8x in spells that last seconds (on
a 2-vCPU x86 VM, a fixed one-second loop measured 0.9 to 1.66 s within one
minute), so repeating work inside a run does not average the swings out.
HostSpeed runs a fixed pure-Python reference loop right before the region,
from a SIGALRM handler every INTERVAL_S of wall time inside it, and right
after it.  A region's time at reference speed is its wall time, minus the
handler's own time, times the mean of REF_NOMINAL_S / measured reference
time: the work done in an interval of wall time is proportional to the
speed of that interval.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# reference-loop time (best of 3) on the machine the baseline was taken
# on; it only scales every reported time, so it must never change
REF_NOMINAL_S = 2.2e-4

_WORDS = tuple(
    tuple(((i * 7 + j * 13) % 11 - 5) or 1 for j in range(24)) for i in range(120)
)


def _reference_once() -> float:
    t0 = perf_counter()
    seen: dict = {}
    for w in _WORDS:
        out: list = []
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        key = tuple(out)
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - t0


def reference() -> float:
    """Best of three runs of the reference loop, so a single interrupt
    does not count as a slow spell."""
    return min(_reference_once() for _ in range(3))


class HostSpeed:
    """Context manager sampling the reference loop around and inside a
    region.  `stack` is the tracer's span stack, if tracing: handler time
    is credited to the open span as nested time, so no layer's self time
    includes it."""

    def __init__(self, stack: list | None = None):
        self.samples: list[float] = []
        self.spent = 0.0  # handler time inside the region
        self._stack = stack

    def _tick(self, _signum, _frame):
        t0 = perf_counter()
        self.samples.append(reference())
        dt = perf_counter() - t0
        self.spent += dt
        if self._stack is not None:
            self._stack[-1] += dt

    def __enter__(self) -> "HostSpeed":
        self.samples.append(reference())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(reference())

    @property
    def start_factor(self) -> float:
        """Speed factor from the sample taken just before the region."""
        return REF_NOMINAL_S / self.samples[0]

    @property
    def factor(self) -> float:
        """Mean speed factor over the region: seconds at reference speed
        per second of wall time."""
        return statistics.fmean(REF_NOMINAL_S / s for s in self.samples)
