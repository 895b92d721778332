import os
from datetime import date, timedelta

import numpy as np
import pytest

from macdlab import PriceSeries, forks


def series_from_closes(closes, code="TEST", start=date(2014, 1, 2)):
    closes = np.asarray(closes, dtype=float)
    dates = [start + timedelta(days=i) for i in range(len(closes))]
    return PriceSeries(code, dates, closes)


def random_walk_closes(rng, n, drift=0.0004, vol=0.01, start=100.0):
    return start * np.exp(np.cumsum(rng.normal(drift, vol, n)))


def plant_divergence(kind, rng, n=100):
    """Build a series with exactly one planted divergence pair.

    Price sits on a flat shelf (no stray strict extrema) with two spikes
    (kind "top") or dips (kind "bottom") that both clear the 15-day
    prominence window; the histogram disagrees with the second extreme.
    Returns (series, indicator_series, expected_prev_idx, expected_cur_idx).
    """
    from macdlab import IndicatorSeries

    t1 = int(rng.integers(20, 32))
    t2 = t1 + int(rng.integers(17, 46))
    assert t2 <= n - 2
    hist = np.zeros(n)
    if kind == "top":
        closes = np.full(n, 95.0)
        first = float(rng.uniform(103.0, 106.0))
        second = first + float(rng.uniform(0.5, 3.0))
        closes[t1], closes[t2] = first, second
        hist[t1] = float(rng.uniform(2.0, 4.0))
        hist[t2] = hist[t1] - float(rng.uniform(0.5, 1.5))
    else:
        closes = np.full(n, 105.0)
        first = float(rng.uniform(94.0, 97.0))
        second = first - float(rng.uniform(0.5, 3.0))
        closes[t1], closes[t2] = first, second
        hist[t1] = -float(rng.uniform(2.0, 4.0))
        hist[t2] = hist[t1] + float(rng.uniform(0.5, 1.5))
    ind = IndicatorSeries.from_dif_dea(hist / 2.0, np.zeros(n))
    return series_from_closes(closes), ind, t1, t2


@pytest.fixture
def make_series():
    return series_from_closes


@pytest.fixture
def rng():
    return np.random.default_rng(20140102)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) lets `forks` use n CPUs, with every day of a `fork_map`
    enough for a process of its own; returns the pids of the children
    this process forked since."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def allow(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forked.clear()
        return forked

    monkeypatch.setattr(forks, "DAYS_PER_PROCESS", 1)
    monkeypatch.setattr(os, "fork", counted)
    return allow


def no_child_left():
    """True when this process has no child, reaped or not."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True
