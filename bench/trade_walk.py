"""Time the batched nets of one series over the whole default GA search space.

    python bench/trade_walk.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only numpy, run_backtest and the batched nets,
`SeriesCache(series).nets(triples, mode)`, are used, so it times older
checkouts that have them too.

For raw and denoised mode, one nets call evaluates every
valid (fast, slow, signal) triple of the default GA bounds (10,395
triples) on a seeded driftless walk of DAYS days,
50 * exp(cumsum(N(0, 0.015))). The best wall time of REPEATS calls is
reported, each on a fresh cache. Before timing, the nets of every
CHECK_EVERY-th triple must equal run_backtest(...).net bit for bit;
a mismatch exits with status 1.

--smoke runs a tiny grid (every SMOKE_EVERY-th triple) on SMOKE_DAYS
days once and checks every triple of it, to show that the harness and its parity check
still run.

Prints one JSON line: the machine, the settings and, per mode, the
triples, the checked triples, the total seconds of the checks'
run_backtest calls, the seconds of every nets call and `minflt`, the
minor page faults this process took during the timed nets calls
(the ru_minflt of getrusage(RUSAGE_SELF), summed over the calls).

Where more than one CPU is available, a nets call this large spreads
its triples over forked processes (SeriesCache.nets), so the seconds
are those of all of them at once and `minflt` counts this process's
share of the work only; the machine's `nproc` is printed with them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from _child import machine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import MacdParams, PriceSeries, SeriesCache, StrategyMode, run_backtest  # noqa: E402

BOUNDS = ((5, 20), (20, 50), (5, 25))
CHECK_EVERY = 97
DAYS, SEED, REPEATS = 2500, 3, 5
SMOKE_EVERY, SMOKE_DAYS = 500, 300
MODES = (StrategyMode.RAW, StrategyMode.DENOISED)


def default_grid() -> list[tuple[int, int, int]]:
    """Every triple of the default GA bounds with fast < slow."""
    (f0, f1), (s0, s1), (z0, z1) = BOUNDS
    return [(f, s, z) for f in range(f0, f1 + 1) for s in range(s0, s1 + 1)
            for z in range(z0, z1 + 1) if f < s]


def walk(days: int, seed: int) -> PriceSeries:
    closes = 50.0 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0.0, 0.015, days)))
    dates = [date(2010, 1, 4) + timedelta(days=i) for i in range(days)]
    return PriceSeries(f"WALK{seed}", dates, closes)


def check(series: PriceSeries, mode: StrategyMode, triples, every: int) -> tuple[int, float]:
    """Check the batched nets against run_backtest on every `every`-th
    triple; return how many were checked and the total seconds of their
    run_backtest calls."""
    sample = triples[::every]
    nets = SeriesCache(series).nets(sample, mode)
    run_s = 0.0
    for genes, net in zip(sample, nets):
        start = time.perf_counter()
        expected = run_backtest(series, MacdParams(*genes), mode).net
        run_s += time.perf_counter() - start
        if net != expected:
            sys.exit(f"trade_walk: {mode.value} {genes}: nets gives {net!r}, "
                     f"run_backtest {expected!r}")
    return len(sample), run_s


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    smoke = parser.parse_args(argv).smoke
    triples, every, days, repeats = default_grid(), CHECK_EVERY, DAYS, REPEATS
    if smoke:
        triples, every, days, repeats = triples[::SMOKE_EVERY], 1, SMOKE_DAYS, 1
    series = walk(days, SEED)

    modes = {}
    for mode in MODES:
        checked, run_backtest_s = check(series, mode, triples, every)
        seconds, minflt = [], 0
        for _ in range(repeats):
            cache = SeriesCache(series)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = time.perf_counter()
            cache.nets(triples, mode)
            seconds.append(time.perf_counter() - start)
            minflt += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        modes[mode.value] = {"triples": len(triples), "checked": checked,
                             "run_backtest_s": run_backtest_s,
                             "best_s": min(seconds), "minflt": minflt, "seconds": seconds}
    print(json.dumps({
        "machine": machine(),
        "days": days, "seed": SEED, "repeats": repeats, "modes": modes,
    }))


if __name__ == "__main__":
    main()
