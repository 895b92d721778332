"""A CPU-speed probe sampled while each timed command runs.

On a shared host the same command can run twice as slow for seconds or
minutes at a time, when neighbours load the cores. Such drift is far
larger than the changes the benchmark must detect. So while a command
runs, a timer interrupts it every PERIOD_S and times one slice of fixed
work (a pure-Python MACD trading loop, so the probe needs no import and
a change to macdlab never changes it). A timing is then reported as

    scaled = (wall - time spent in slices) * (REFERENCE_S / mean slice time) ** EXPONENT

that is, in seconds at the speed where a slice takes REFERENCE_S, the
usual speed of the 2-core x86_64 host (Python 3.11) the benchmark was
defined on. Raw wall times are printed beside the result.
"""

from __future__ import annotations

import math
import signal
import time

PERIOD_S = 0.1
REFERENCE_S = 0.0006
# When the host slows the probe by a factor f, it slows macdlab's
# commands by about f ** 1.5: fitting log(command time) on log(slice
# time) over repeats of the same command gave exponents of 1.3-1.7 on
# the three workloads (correlations 0.84-0.97); `run.py --fit-probe`
# repeats the fit.
EXPONENT = 1.5
_CLOSES = [100.0 * math.exp(0.01 * math.sin(i * 0.37) * (i % 17)) for i in range(1600)]


def _slice() -> float:
    """Run one slice of fixed work; return its wall seconds."""
    start = time.perf_counter()
    a_fast, a_slow, a_sig = 2 / 13, 2 / 27, 2 / 10
    fast = slow = _CLOSES[0]
    dea = prev = 0.0
    cash, quantity = 1.0, 0.0
    for close in _CLOSES:
        fast = a_fast * close + (1 - a_fast) * fast
        slow = a_slow * close + (1 - a_slow) * slow
        dif = fast - slow
        dea = a_sig * dif + (1 - a_sig) * dea
        hist = dif - dea
        if hist > 0 >= prev and quantity == 0.0:
            quantity, cash = cash / close, 0.0
        elif hist < 0 <= prev and quantity > 0.0:
            cash, quantity = quantity * close, 0.0
        prev = hist
    return time.perf_counter() - start


class Sampler:
    """Times a probe slice on every SIGALRM between `start` and `stop`."""

    def __init__(self):
        self.slices: list[float] = []

    def _on_alarm(self, signum, frame):
        self.slices.append(_slice())

    def start(self) -> None:
        self.slices = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> tuple[float, float]:
        """(seconds spent in slices, mean slice seconds) since `start`."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slices:
            # Shorter than one period: time one slice now instead.
            return 0.0, _slice()
        return sum(self.slices), sum(self.slices) / len(self.slices)


def scale(seconds: float, slice_s: float) -> float:
    """A time measured at slice time `slice_s`, at the reference speed."""
    return seconds * (REFERENCE_S / slice_s) ** EXPONENT
