"""Time the artifact writer on the files of one backtest and one analysis per instrument.

    python bench/writer.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only the library and the writer's `cli._write_csv`,
`cli._text` and `cli._json_text` are used, so it times older checkouts
that have them too.

INSTRUMENTS seeded driftless walks of DAYS days,
50 * exp(cumsum(N(0, 0.015))), are backtested once each in divergence
mode with (12, 26, 9), as perfbench's panel_backtest runs `backtest`.
Each instrument's columns are those `macdlab backtest` writes: equity
(date, equity) and chart (date, close, dif, dif_denoised, dea, signal;
in divergence mode dif_denoised is the smoothed DIF it traded on). Its
records are the trades `backtest` writes and the divergence events
`analyze` writes, dated as they write them.
Before timing, `_text` of every float column must equal `repr` of each
value as a Python float, of the int8 signal column `str` of each value,
and `_json_text` of each record list `json.dumps(indent=2,
sort_keys=True)`; a mismatch exits with status 1. The check runs in
this process before any fork, so whatever the writer imports is loaded
before the children are timed.

Each of REPEATS children, forked in turn by bench/_child.py's `forked`,
writes every instrument's equity_<code>.csv and chart_<code>.csv by
`_write_csv` into a temporary directory, timing each file, then times
`_text` on each of the instrument's float columns and its signal
column, and `_json_text` of its trades and of its divergences.

--smoke runs SMOKE_INSTRUMENTS instruments of SMOKE_DAYS days once, to
show that the harness and its check still run.

Prints one JSON line: the machine, the settings, best_ms (per file and
per column, the least of the repeats' mean milliseconds per instrument)
and, per repeat, those means (`repeats_ms`) and the child's wall and
CPU seconds, from the fork to its reaping.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from _child import forked, machine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import (  # noqa: E402
    MacdParams, PriceSeries, StrategyMode, compute_indicators, detect_divergences, run_backtest)
from macdlab.cli import _json_text, _text, _write_csv  # noqa: E402

INSTRUMENTS, DAYS, SEED, REPEATS = 100, 1500, 34, 5
SMOKE_INSTRUMENTS, SMOKE_DAYS = 3, 300
PARAMS, MODE = MacdParams(12, 26, 9), StrategyMode("divergence")
CHART = ["date", "close", "dif", "dif_denoised", "dea", "signal"]
FLOAT_COLUMNS = ("close", "dif", "dif_denoised", "dea", "equity")
RECORDS = ("trades", "divergences")


def instruments(count: int, days: int) -> list[dict]:
    """Each instrument's code, the columns `backtest` writes and the
    records `backtest` and `analyze` write, by name."""
    rng = np.random.default_rng(SEED)
    dates = [date(2010, 1, 4) + timedelta(days=i) for i in range(days)]
    iso = [day.isoformat() for day in dates]
    out = []
    for k in range(count):
        closes = 50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.015, days)))
        series = PriceSeries(f"W{k:03d}", dates, closes)
        log = run_backtest(series, PARAMS, MODE)
        lines = log.lines
        events = detect_divergences(series, compute_indicators(series, PARAMS))
        out.append({"code": f"W{k:03d}", "date": iso, "close": closes, "dif": lines.dif,
                    "dif_denoised": lines.trade_dif, "dea": lines.dea,
                    "signal": lines.signals, "equity": log.equity,
                    "trades": [{**vars(t), "buy_date": iso[t.buy_index],
                                "sell_date": iso[t.sell_index]} for t in log.trades],
                    "divergences": [{**vars(e), "current_date": iso[e.current_extreme_index],
                                     "previous_date": iso[e.previous_extreme_index]}
                                    for e in events]})
    return out


def check(panel: list[dict]) -> None:
    for inst in panel:
        for name in FLOAT_COLUMNS:
            if _text(inst[name]) != list(map(repr, inst[name].tolist())):
                sys.exit(f"writer: {inst['code']} {name}: _text differs from repr")
        if _text(inst["signal"]) != list(map(str, inst["signal"].tolist())):
            sys.exit(f"writer: {inst['code']} signal: _text differs from str")
        for name in RECORDS:
            if _json_text(inst[name]) != json.dumps(inst[name], indent=2, sort_keys=True):
                sys.exit(f"writer: {inst['code']} {name}: _json_text differs from json.dumps")


def timed(panel: list[dict], folder: Path) -> dict:
    """Mean milliseconds per instrument of each file's write, each
    column's text and each record list's text."""
    texts = {**{name: _text for name in (*FLOAT_COLUMNS, "signal")},
             **{name: _json_text for name in RECORDS}}
    total = dict.fromkeys(("equity_csv", "chart_csv", *texts), 0.0)
    for inst in panel:
        code = inst["code"]
        start = time.perf_counter()
        _write_csv(folder / f"equity_{code}.csv", ["date", "equity"],
                   [inst["date"], inst["equity"]])
        done = time.perf_counter()
        total["equity_csv"] += done - start
        _write_csv(folder / f"chart_{code}.csv", CHART, [inst[name] for name in CHART])
        total["chart_csv"] += time.perf_counter() - done
    for inst in panel:
        for name, text in texts.items():
            start = time.perf_counter()
            text(inst[name])
            total[name] += time.perf_counter() - start
    return {name: 1e3 * seconds / len(panel) for name, seconds in total.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    smoke = parser.parse_args(argv).smoke
    count, days, repeats = (SMOKE_INSTRUMENTS, SMOKE_DAYS, 1) if smoke else (
        INSTRUMENTS, DAYS, REPEATS)
    panel = instruments(count, days)
    check(panel)

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(repeats):
            reply, usage, wall = forked(lambda: timed(panel, Path(tmp)))
            runs.append({"ms": reply, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime})
    print(json.dumps({
        "machine": machine(),
        "instruments": count, "days": days, "seed": SEED, "repeats": repeats,
        "params": [PARAMS.fast, PARAMS.slow, PARAMS.signal], "mode": MODE.value,
        "best_ms": {name: min(run["ms"][name] for run in runs) for name in runs[0]["ms"]},
        "repeats_ms": [run["ms"] for run in runs],
        "wall_s": [run["wall_s"] for run in runs], "cpu_s": [run["cpu_s"] for run in runs],
    }))


if __name__ == "__main__":
    main()
