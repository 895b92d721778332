"""References from macdlab's scalar library path, and the checks that
compare every timed command's artifacts against them.

manifest.json is never read: its contents are allowed to change.
Floats match to 1e-9 relative; a value near zero may instead sit within
1e-9 of its column's (or the capital's) magnitude, so that a change in
the last bit of a value that merely crosses zero still passes. Indices,
dates, triggers, integer signals and counts must match exactly.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from macdlab import (
    GaConfig,
    MacdParams,
    PriceSeries,
    RiskConfig,
    StrategyMode,
    compute_indicators,
    compute_metrics,
    cross_signals,
    denoise_dif,
    evaluate_fitness,
    optimize,
    recompute_dea_from_denoised,
    run_backtest,
)
from macdlab.backtest import DEFAULT_CAPITAL

RTOL = 1e-9


def close(a: float, b: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), scale)


def cleaned(inst) -> PriceSeries:
    """The instrument as clean() should leave it: blank closes dropped."""
    keep = np.isfinite(inst.closes)
    return PriceSeries(inst.code, [d for d, k in zip(inst.dates, keep) if k], inst.closes[keep])


# -------------------------------------------------------------------- GA


@dataclass
class GaRef:
    code: str
    mode: str
    genes: tuple[int, int, int]
    fitness: float


def ga_best(inst, mode: str, max_gen: int) -> tuple[int, int, int]:
    """The best triple the library GA finds with a scalar fitness function;
    used only to take pins (`run.py --pin`)."""
    series = cleaned(inst)
    strategy = StrategyMode(mode)
    result = optimize(None, strategy, GaConfig(max_generations=max_gen),
                      fitness_fn=lambda g: evaluate_fitness(g, series, strategy))
    return tuple(int(g) for g in result.best_genes)


def ga_reference(inst, mode: str, pinned) -> GaRef:
    """The pinned best triple and its fitness from a fresh evaluation."""
    genes = tuple(int(g) for g in pinned)
    return GaRef(inst.code, mode, genes, evaluate_fitness(genes, cleaned(inst), StrategyMode(mode)))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def check_ga(out: Path, ref: GaRef) -> list[str]:
    """Problems found in one optimize run's artifacts (empty when correct)."""
    problems = []
    best = json.loads((out / "best.json").read_text(encoding="utf-8"))
    genes = (best["fast"], best["slow"], best["signal"])
    if (best["code"], best["mode"]) != (ref.code, ref.mode):
        problems.append(f"best.json names {best['code']}/{best['mode']}")
    if genes != ref.genes:
        problems.append(f"best triple {genes} != expected {ref.genes}")
    if not close(best["fitness"], ref.fitness, DEFAULT_CAPITAL):
        problems.append(f"best fitness {best['fitness']!r} != fresh evaluation {ref.fitness!r}")

    header, rows = _read_csv(out / "history.csv")
    last = dict(zip(header, rows[-1]))
    if not close(float(last["best_fitness"]), ref.fitness, DEFAULT_CAPITAL):
        problems.append(f"history best_fitness {last['best_fitness']} != {ref.fitness!r}")
    if (int(last["best_fast"]), int(last["best_slow"]), int(last["best_signal"])) != ref.genes:
        problems.append("history's final best triple differs from best.json")

    header, rows = _read_csv(out / "comparison.csv")
    optimized = [dict(zip(header, r)) for r in rows if r[0] == "optimized"]
    if len(optimized) != 1 or optimized[0]["params"] != "{},{},{}".format(*ref.genes):
        problems.append("comparison.csv lacks the optimized row for the best triple")
    elif not close(float(optimized[0]["total_return"]), ref.fitness, DEFAULT_CAPITAL):
        problems.append("comparison.csv total_return != best fitness")
    return problems


# ----------------------------------------------------------------- panel


@dataclass
class PanelRef:
    pin_problem: str | None   # the library disagrees with the pinned outcome
    dates: list[str]
    closes: np.ndarray
    dif: np.ndarray
    smooth: np.ndarray
    dea: np.ndarray
    signals: np.ndarray
    equity: np.ndarray
    trades: list[dict]
    metrics: dict


def panel_outcome(inst, mode: str) -> tuple:
    """(backtest log, metrics report, what pins.json records of them:
    [trades, net, max_drawdown, sharpe_ratio]) of one panel instrument."""
    series = cleaned(inst)
    log = run_backtest(series, MacdParams(), StrategyMode(mode), DEFAULT_CAPITAL)
    report = compute_metrics(log, series.span_days, RiskConfig())
    return log, report, [len(log.trades), log.net, report.max_drawdown, report.sharpe_ratio]


def _pin_matches(got: list, pinned: list) -> bool:
    trades, net, drawdown, sharpe = got
    return (trades == pinned[0] and close(net, pinned[1], DEFAULT_CAPITAL)
            and close(drawdown, pinned[2])
            and (sharpe is None) == (pinned[3] is None) and (sharpe is None or close(sharpe, pinned[3])))


def panel_reference(inst, mode: str, pinned) -> PanelRef:
    series = cleaned(inst)
    params, strategy = MacdParams(), StrategyMode(mode)
    log, report, outcome = panel_outcome(inst, mode)
    pin_problem = None
    if not _pin_matches(outcome, pinned):
        pin_problem = f"the library's backtest gives {outcome}; pinned {pinned}"
    ind = compute_indicators(series, params)
    smooth = denoise_dif(ind.dif)
    trade_ind = ind if strategy is StrategyMode.RAW else recompute_dea_from_denoised(smooth, params.signal)
    return PanelRef(
        pin_problem=pin_problem,
        dates=[d.isoformat() for d in series.dates],
        closes=series.closes,
        dif=ind.dif,
        smooth=smooth,
        dea=trade_ind.dea,
        signals=cross_signals(trade_ind).signals.astype(int),
        equity=log.equity,
        trades=[vars(t) for t in log.trades],
        metrics=report.as_dict(),
    )


def _column_close(got: list[str], want: np.ndarray) -> bool:
    values = np.array(got, dtype=float)
    scale = float(np.abs(want).max()) if want.size else 0.0
    return bool(np.all(np.abs(values - want) <= RTOL * np.maximum(np.maximum(np.abs(values), np.abs(want)), scale)))


def check_instrument(out: Path, code: str, ref: PanelRef) -> list[str]:
    problems = [ref.pin_problem] if ref.pin_problem else []
    trades = json.loads((out / f"trades_{code}.json").read_text(encoding="utf-8"))
    if len(trades) != len(ref.trades):
        problems.append(f"{len(trades)} trades, expected {len(ref.trades)}")
    for got, want in zip(trades, ref.trades):
        for key in ("buy_index", "sell_index", "trigger"):
            if got[key] != want[key]:
                problems.append(f"trade {key} {got[key]!r} != {want[key]!r}")
        if (got["buy_date"], got["sell_date"]) != (ref.dates[want["buy_index"]], ref.dates[want["sell_index"]]):
            problems.append("trade dates differ")
        for key in ("buy_price", "sell_price", "quantity"):
            if not close(got[key], want[key]):
                problems.append(f"trade {key} {got[key]!r} != {want[key]!r}")
        if not close(got["pnl"], want["pnl"], DEFAULT_CAPITAL):
            problems.append(f"trade pnl {got['pnl']!r} != {want['pnl']!r}")

    metrics = json.loads((out / f"metrics_{code}.json").read_text(encoding="utf-8"))
    if sorted(metrics) != sorted(ref.metrics):
        problems.append("metrics keys differ")
    for key, want in ref.metrics.items():
        got = metrics.get(key)
        if (got is None) != (want is None) or (want is not None and not close(got, want)):
            problems.append(f"metric {key} {got!r} != {want!r}")

    header, rows = _read_csv(out / f"equity_{code}.csv")
    cols = list(zip(*rows)) if rows else [(), ()]
    if header != ["date", "equity"] or list(cols[0]) != ref.dates:
        problems.append("equity rows or dates differ")
    elif not _column_close(cols[1], ref.equity):
        problems.append("equity values differ")

    header, rows = _read_csv(out / f"chart_{code}.csv")
    cols = list(zip(*rows)) if rows else [()] * 6
    if header != ["date", "close", "dif", "dif_denoised", "dea", "signal"] or list(cols[0]) != ref.dates:
        problems.append("chart rows or dates differ")
    else:
        if not np.array_equal(np.array(cols[1], dtype=float), ref.closes):
            problems.append("chart closes differ")
        for col, want in ((cols[2], ref.dif), (cols[3], ref.smooth), (cols[4], ref.dea)):
            if not _column_close(col, want):
                problems.append("chart indicator values differ")
        if not np.array_equal(np.array(cols[5], dtype=int), ref.signals):
            problems.append("chart signals differ")
    return problems


def check_panel(out: Path, refs: dict[str, PanelRef]) -> dict[str, list[str]]:
    """Problems per instrument code; an instrument absent from the output fails."""
    problems = {}
    expected = {f"{kind}_{code}.{ext}" for code in refs
                for kind, ext in (("trades", "json"), ("metrics", "json"),
                                  ("equity", "csv"), ("chart", "csv"))}
    present = {p.name for p in out.iterdir()} - {"manifest.json"}
    if present != expected:
        problems["*"] = [f"artifact set differs: {len(present)} files, expected {len(expected)}"]
    for code, ref in refs.items():
        try:
            found = check_instrument(out, code, ref)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found = [f"unreadable artifact: {exc!r}"]
        if found:
            problems[code] = found
    return problems
