"""The machine's speed while an untraced run measures.

The host switches between a fast state and one up to about 1.9 times
slower, in spells from a fraction of a second to minutes, so the share
of slow time differs from one run to the next.  While a run measures, a
timer signal every PERIOD_S runs a fixed pure-Python loop and records
how long it took.  Each time the run reports is then scaled to the
speed at which that loop takes REF_S: the time, less the loop's own
share of it, times REF_S over the loop's mean time in the same span.
"""

from __future__ import annotations

import signal
from time import perf_counter

PERIOD_S = 0.005
LOOP_ITERATIONS = 1000
# The loop's time in the host's fast state; reported seconds are
# seconds at that speed.
REF_S = 85e-6
# A span shorter than this many samples is scaled by the samples just
# before it; the host's speed states last far longer than that.
MIN_SAMPLES = 20


class Speed:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        s = 0
        for i in range(LOOP_ITERATIONS):
            s += i * i % 7
        self.samples.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.samples)

    def scaled(self, elapsed: float, first: int, end: int) -> float:
        """`elapsed` seconds, during which samples `first` to `end` were
        taken, at the reference speed."""
        own = sum(self.samples[first:end])
        window = self.samples[max(0, min(first, end - MIN_SAMPLES)):end]
        return (elapsed - own) * REF_S * len(window) / sum(window)

    def summary(self) -> str:
        mean = sum(self.samples) / len(self.samples)
        return (f"speed: {len(self.samples)} loop samples, mean {mean * 1e6:.1f} us, "
                f"fastest {min(self.samples) * 1e6:.1f} us, reference {REF_S * 1e6:.1f} us")
