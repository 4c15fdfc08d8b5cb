"""Machine-speed calibration.

The reference machine (a shared 2-vCPU VM) changes speed by 15-20% from one
second to the next and by more over minutes, and a repeated dron chunk slows
and speeds up with it. A short fixed pass of interpreter work and small matrix
products, the mix the program spends its time on, changes speed the same way
when it runs interleaved with the work: over 10-second windows, soccer eval
ms per game spread 18% raw and 2% divided by the interleaved pass time. Passes
timed a second or more apart from the work do not track it.

So while a run measures, a timer signal runs one pass every ``INTERVAL_S``;
the pass time is recorded and left out of the work clock (``clock``).
End-to-end times are reported at the speed where one pass takes
``REFERENCE_S`` (``scale_since``). The raw figures and the mean pass time go
into the run's ``info`` line.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from typing import List

import numpy as np

REFERENCE_S = 0.002
INTERVAL_S = 0.05

_A = np.random.default_rng(0).standard_normal((64, 50))
_B = np.random.default_rng(1).standard_normal((50, 50))


def one_pass() -> float:
    """Seconds for a fixed mix of dict/int bytecode and 64x50 @ 50x50 products."""
    start = time.perf_counter()
    counts = {}
    for i in range(7_200):
        counts[i % 97] = counts.get(i % 97, 0) + (i * 7) % 13
    total = 0.0
    for _ in range(90):
        total += float(np.maximum(_A @ _B, 0.0).sum())
    return time.perf_counter() - start


class Calibration:
    """Pass times sampled on a timer, interleaved with the measured work."""

    def __init__(self):
        self.samples: List[float] = []
        self.stolen_s = 0.0

    def clock(self) -> float:
        """Wall seconds, less the time spent in calibration passes."""
        return time.perf_counter() - self.stolen_s

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(one_pass())
        self.stolen_s += time.perf_counter() - start

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def pass_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale_since(self, first_sample: int) -> float:
        """Factor that turns a wall time measured since sample ``first_sample``
        into a time at the reference speed. The speed changes within seconds,
        so each chunk is scaled by the passes run during it (by all passes if
        it was too short to see one). A chunk's time adds up its work at each
        moment's speed, so the matching figure is the mean pass time, slow
        moments included: over ten runs of quiz-moe3-train chunks the spread
        was 4.2% with the mean against 7.8% with the median."""
        if len(self.samples) == first_sample == 0:
            self.samples.append(one_pass())
        recent = self.samples[first_sample:] or self.samples
        return REFERENCE_S / statistics.fmean(recent)
