"""Seeded synthetic close-price series for the benchmark.

Prices follow a regime-switching random walk: trending stretches (a
drift up or down) alternate with sideways stretches that mean-revert
inside a narrow band, so that both divergences and oscillation ranges
occur. Everything is drawn from one numpy Generator, so the same seed
always yields the same CSV bytes. Only numpy is used: the program under
test never runs here.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

START = date(2010, 1, 4)


@dataclass
class Instrument:
    code: str
    dates: list[date]
    closes: np.ndarray  # NaN marks a blank close in the CSV


def business_days(n: int, start: date = START) -> list[date]:
    days, day = [], start
    while len(days) < n:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def regime_walk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Log-price walk alternating trend and sideways regimes of 30-150 days."""
    log_p = np.empty(n)
    level = np.log(rng.uniform(20.0, 200.0))
    t = 0
    while t < n:
        length = min(int(rng.integers(30, 151)), n - t)
        if rng.random() < 0.5:
            drift = rng.choice([-1.0, 1.0]) * rng.uniform(0.001, 0.003)
            steps = rng.normal(drift, rng.uniform(0.008, 0.02), length)
            log_p[t:t + length] = level + np.cumsum(steps)
        else:
            x = 0.0
            for i, shock in enumerate(rng.normal(0.0, rng.uniform(0.003, 0.008), length).tolist()):
                x = 0.8 * x + shock
                log_p[t + i] = level + x
        level = log_p[t + length - 1]
        t += length
    return np.round(np.exp(log_p), 4)


def pool_instrument(index: int, days: int, blanks: int = 0) -> Instrument:
    """Instrument `index` of a fixed pool, the same whatever the benchmark seed,
    with `blanks` closes left empty (never the first or last, so the span
    is kept).

    Drawing inputs from a fixed pool lets the expected outcome for every
    instrument be pinned once (pins.json) at the commit that defined the
    benchmark, instead of being re-derived from the program under test.
    """
    rng = np.random.default_rng(np.random.SeedSequence([index, days]))
    closes = regime_walk(rng, days)
    if blanks:
        closes[rng.choice(np.arange(1, days - 1), size=blanks, replace=False)] = np.nan
    return Instrument(f"P{index:03d}", business_days(days), closes)


def pick(seed: int, pool_size: int, count: int) -> list[int]:
    """`count` distinct pool indices drawn from `seed`, in ascending order."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, pool_size, count]))
    return sorted(int(i) for i in rng.choice(pool_size, size=count, replace=False))


def write_csv(instruments: list[Instrument], path) -> int:
    """Write the code,date,close CSV; return its size in bytes."""
    lines = ["code,date,close\n"]
    for inst in instruments:
        code = inst.code
        for day, close in zip(inst.dates, inst.closes.tolist()):
            lines.append(f"{code},{day.isoformat()},{'' if close != close else repr(close)}\n")
    text = "".join(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return len(text)
