"""Batch command-line front end.

Subcommands mirror the workflow: ingest -> analyze/denoise -> backtest
-> compare -> optimize. Every run writes its artifacts plus a
manifest.json under --out, and deletes the files the previous manifest
there listed that it did not write again; outputs carry no timestamps
or other run-varying content, so re-running a command reproduces them
byte-for-byte.

denoise, analyze and backtest process each instrument on its own. One
they cannot process (unusable after cleaning, or too short) is skipped:
no file is written for it, and its reason goes to stderr and to the
manifest's "skipped". The run fails only when no instrument was
processed.

Exit codes: 0 success, 1 usage/config error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import detect_divergences, detect_oscillation
from .backtest import DEFAULT_CAPITAL, StrategyMode, run_backtest
from .errors import ConfigError, DataError, UnusableSeriesError
from .indicators import MacdParams, compute_indicators
from .ingest import clean, load_csv, save_csv
from .metrics import REPORT_COLUMNS, MetricsReport, RiskConfig, compute_metrics
from .optimizer import GaConfig, optimize
from .wavelet import denoise_dif

MODE_CHOICES = tuple(m.value for m in StrategyMode)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; this laboratory reserves 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_params(text: str) -> MacdParams:
    try:
        fast, slow, signal = (int(p) for p in text.split(","))
        return MacdParams(fast, slow, signal)
    except (ValueError, ConfigError) as exc:
        raise argparse.ArgumentTypeError(f"bad --params {text!r}: {exc}") from None


def _parse_capital(text: str) -> float:
    try:
        capital = float(text)
        if math.isfinite(capital) and capital > 0:
            return capital
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad --capital {text!r}: must be a finite number > 0")


def _fmt(value) -> str:
    """Deterministic cell formatting: full-precision floats, explicit None."""
    if value is None:
        return "undefined"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"  # no file if obj cannot be encoded
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _text(column) -> list[str]:
    """The cells of one column, each as `_fmt` writes it.

    Whole numpy columns are formatted by dtype: `repr` of the Python
    float (the text of `repr(float(x))`, `nan` included), `str` of the
    Python int, and "1"/"0" for bools. Anything else goes cell by cell.
    """
    if isinstance(column, np.ndarray):
        kind = column.dtype.kind
        if kind == "f":
            return list(map(repr, column.tolist()))
        if kind in "iu":
            return list(map(str, column.tolist()))
        if kind == "b":
            return ["1" if v else "0" for v in column.tolist()]
    return [v if type(v) is str else _fmt(v) for v in column]


_CSV_SPECIAL = (",", '"', "\r", "\n")


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_cells(cells: list[str]) -> list[str]:
    """A column's cells, passed through csv.writer only if one of them
    holds a character it may quote (cells are never split across a row)."""
    joined = "".join(cells)
    if any(char in joined for char in _CSV_SPECIAL):
        return [_csv_cell(cell) for cell in cells]
    return cells


def _write_csv(path: Path, header, columns) -> None:
    """Write a CSV from whole columns (numpy arrays or sequences of cell
    values), with the bytes csv.writer writes for the same rows of `_fmt`
    cells, `\\n` line ends."""
    cells = [_csv_cells(_text(column)) for column in columns]
    lines = [",".join(_csv_cells(list(header)))]
    lines.extend(map(",".join, zip(*cells)))
    lines.append("")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    print(f"wrote {path}")


def _write_manifest(out: Path, command: str, args: argparse.Namespace,
                    options: dict, artifacts: list[str], skipped: dict | None = None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "data": str(args.data),
        "options": options,
        "artifacts": sorted(artifacts),
    }
    if skipped:
        manifest["skipped"] = skipped
    _remove_stale(out, artifacts)
    _write_json(out / "manifest.json", manifest)


def _remove_stale(out: Path, artifacts: list[str]) -> None:
    """Delete the files the previous manifest in `out` listed that this run
    did not write. Only plain file names directly inside `out` count; a
    file no manifest listed is left alone."""
    try:
        listed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
        stale = {name for name in listed if isinstance(name, str)} - set(artifacts)
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in sorted(stale):
        if Path(name).name == name and (out / name).is_file():
            (out / name).unlink()


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _screen(path) -> list[tuple]:
    """Every instrument in `path`, in file order, as (series, cleaned, None)
    or, when clean() screens it out, (series, None, the UnusableSeriesError)."""
    screened = []
    for series in load_csv(path):
        try:
            screened.append((series, clean(series), None))
        except UnusableSeriesError as exc:
            screened.append((series, None, exc))
    return screened


def _skip(skipped: dict, code: str, reason) -> None:
    """Record an instrument a command cannot process, for the manifest and stderr."""
    skipped[code] = str(reason)
    print(f"skipped {code}: {reason}", file=sys.stderr)


def _load_skipping(path, skipped: dict) -> list:
    """The usable instruments in `path`; each unusable one is skipped.
    A data error when none is usable."""
    screened = _screen(path)
    usable = [cleaned for _, cleaned, _ in screened if cleaned is not None]
    if not usable:
        raise DataError(f"no usable instrument in {path}")
    for series, _, unusable in screened:
        if unusable is not None:
            _skip(skipped, series.code, unusable)
    return usable


class _IsoDates(dict):
    """Date -> ISO text, each date formatted once per command: a panel's
    instruments mostly share their trading days."""

    def __missing__(self, day):
        text = self[day] = day.isoformat()
        return text

    def column(self, series) -> list[str]:
        return list(map(self.__getitem__, series.dates))


def _each_instrument(args, command: str, done: str, options: dict, write) -> int:
    """Run `write(series, out, iso)` on each usable instrument: it writes
    the instrument's artifacts and returns their names, computing all
    before it writes, so an instrument it raises a data error on is
    skipped with its reason and leaves no file. A data error, with every
    reason, when no instrument could be `done`; else the manifest."""
    out = _out_dir(args)
    skipped = {}
    iso = _IsoDates()
    artifacts = []
    for series in _load_skipping(args.data, skipped):
        try:
            artifacts += write(series, out, iso)
        except (DataError, ValueError) as exc:
            _skip(skipped, series.code, exc)
    if not artifacts:
        raise DataError(f"no instrument in {args.data} could be {done}: "
                        + "; ".join(f"{code}: {why}" for code, why in skipped.items()))
    _write_manifest(out, command, args, options, artifacts, skipped)
    return 0


def _metrics_row(report: MetricsReport) -> list:
    return [getattr(report, name) for name in REPORT_COLUMNS]


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    artifacts = []
    summary, usable = [], []
    for series, cleaned, unusable in _screen(args.data):
        if unusable is not None:
            summary.append([series.code, len(series), "", unusable.dropped, "unusable"])
            continue
        usable.append(cleaned)
        summary.append([series.code, len(series), len(cleaned),
                        len(series) - len(cleaned), "ok"])
    _write_csv(out / "instruments.csv",
               ["code", "rows", "rows_kept", "rows_dropped", "status"], zip(*summary))
    artifacts.append("instruments.csv")
    save_csv(usable, out / "cleaned.csv")
    print(f"wrote {out / 'cleaned.csv'}")
    artifacts.append("cleaned.csv")
    _write_manifest(out, "ingest", args, {}, artifacts)
    return 0


def cmd_denoise(args) -> int:
    def write(series, out, iso) -> list[str]:
        ind = compute_indicators(series, args.params)
        smooth = denoise_dif(ind.dif)
        name = f"denoise_{series.code}.csv"
        _write_csv(out / name, ["date", "dif", "dif_denoised"],
                   [iso.column(series), ind.dif, smooth])
        return [name]

    return _each_instrument(args, "denoise", "denoised",
                            {"params": list(args.params.as_tuple())}, write)


def cmd_analyze(args) -> int:
    def write(series, out, iso) -> list[str]:
        osc = detect_oscillation(series)  # both raise ValueError on too few days
        events = detect_divergences(series, compute_indicators(series, args.params))
        code = series.code
        _write_csv(out / f"oscillation_{code}.csv",
                   ["date", "close", "mean10", "inband", "pairflag", "mask"],
                   [iso.column(series), series.closes, osc.mean10, osc.inband, osc.pairflag,
                    osc.mask])
        _write_json(out / f"divergences_{code}.json", [
            {
                "kind": e.kind,
                "current_extreme_index": e.current_extreme_index,
                "previous_extreme_index": e.previous_extreme_index,
                "current_date": series.dates[e.current_extreme_index].isoformat(),
                "previous_date": series.dates[e.previous_extreme_index].isoformat(),
                "price_at_extremes": list(e.price_at_extremes),
                "macd_at_extremes": list(e.macd_at_extremes),
            }
            for e in events
        ])
        return [f"oscillation_{code}.csv", f"divergences_{code}.json"]

    return _each_instrument(args, "analyze", "analyzed",
                            {"params": list(args.params.as_tuple())}, write)


def cmd_backtest(args) -> int:
    mode = StrategyMode(args.mode)
    risk = RiskConfig(risk_free_rate=args.risk_free)

    def write(series, out, iso) -> list[str]:
        log = run_backtest(series, args.params, mode, args.capital)  # DataError when too short
        report = compute_metrics(log, series.span_days, risk)
        # The lines the run traded on; signal is the crossover tag before
        # divergence overrides. Raw mode trades on no smoothed DIF.
        lines = log.lines
        smooth = denoise_dif(lines.dif) if mode is StrategyMode.RAW else lines.trade_dif
        code = series.code
        _write_json(out / f"metrics_{code}.json", report.as_dict())
        _write_json(out / f"trades_{code}.json", [
            {
                "buy_index": t.buy_index,
                "sell_index": t.sell_index,
                "buy_date": series.dates[t.buy_index].isoformat(),
                "sell_date": series.dates[t.sell_index].isoformat(),
                "buy_price": t.buy_price,
                "sell_price": t.sell_price,
                "quantity": t.quantity,
                "pnl": t.pnl,
                "trigger": t.trigger,
            }
            for t in log.trades
        ])
        dates = iso.column(series)
        _write_csv(out / f"equity_{code}.csv", ["date", "equity"], [dates, log.equity])
        _write_csv(out / f"chart_{code}.csv",
                   ["date", "close", "dif", "dif_denoised", "dea", "signal"],
                   [dates, series.closes, lines.dif, smooth, lines.dea, lines.signals])
        return [f"metrics_{code}.json", f"trades_{code}.json", f"equity_{code}.csv",
                f"chart_{code}.csv"]

    return _each_instrument(args, "backtest", "backtested", {
        "mode": mode.value,
        "params": list(args.params.as_tuple()),
        "capital": args.capital,
        "risk_free": args.risk_free,
    }, write)


def cmd_compare(args) -> int:
    out = _out_dir(args)
    risk = RiskConfig(risk_free_rate=args.risk_free)
    rows = []
    for series, cleaned, unusable in _screen(args.data):
        if unusable is not None:
            for mode in StrategyMode:
                rows.append([series.code, mode.value] + [""] * len(REPORT_COLUMNS) + ["unusable"])
            continue
        for mode in StrategyMode:
            try:
                log = run_backtest(cleaned, args.params, mode, args.capital)
                report = compute_metrics(log, cleaned.span_days, risk)
                rows.append([series.code, mode.value] + _metrics_row(report) + ["ok"])
            except (DataError, ValueError):
                rows.append([series.code, mode.value] + [""] * len(REPORT_COLUMNS) + ["error"])
    _write_csv(out / "comparison.csv",
               ["name", "mode", *REPORT_COLUMNS, "status"], zip(*rows))
    _write_manifest(out, "compare", args, {
        "params": list(args.params.as_tuple()),
        "capital": args.capital,
        "risk_free": args.risk_free,
    }, ["comparison.csv"])
    return 0


def cmd_optimize(args) -> int:
    out = _out_dir(args)
    artifacts = []
    mode = StrategyMode(args.mode)
    risk = RiskConfig(risk_free_rate=args.risk_free)
    skipped = {}
    usable = _load_skipping(args.data, skipped)
    if args.code:
        matches = [s for s in usable if s.code == args.code]
        if not matches:
            raise DataError(f"instrument {args.code!r} not found or unusable in {args.data}")
        series = matches[0]
    elif len(usable) == 1:
        series = usable[0]
    else:
        raise ConfigError(
            f"{args.data} holds {len(usable)} instruments; pick one with --code"
        )

    cfg = GaConfig(
        population_size=args.pop,
        crossover_rate=args.pc,
        mutation_rate=args.pm,
        convergence_patience=args.patience,
        max_generations=args.max_gen,
        seed=args.seed,
    )
    result = optimize(series, mode, cfg, workers=args.workers, initial_capital=args.capital)

    best = MacdParams(*result.best_genes)
    _write_json(out / "best.json", {
        "code": series.code,
        "mode": mode.value,
        "fast": best.fast,
        "slow": best.slow,
        "signal": best.signal,
        "fitness": result.best_fitness,
        "generations": result.generations,
        "converged": result.converged,
    })
    artifacts.append("best.json")

    _write_csv(out / "history.csv",
               ["generation", "best_fitness", "mean_fitness",
                "best_fast", "best_slow", "best_signal"],
               zip(*([g.generation, g.best_fitness, g.mean_fitness, *g.best_genes]
                     for g in result.history)))
    artifacts.append("history.csv")

    comparison = []
    for label, params in (("default", MacdParams()), ("optimized", best)):
        log = run_backtest(series, params, mode, args.capital)
        report = compute_metrics(log, series.span_days, risk)
        comparison.append([label, "{},{},{}".format(*params.as_tuple())] + _metrics_row(report))
    _write_csv(out / "comparison.csv",
               ["run", "params", *REPORT_COLUMNS], zip(*comparison))
    artifacts.append("comparison.csv")

    _write_manifest(out, "optimize", args, {
        "mode": mode.value,
        "code": series.code,
        "pop": args.pop,
        "pc": args.pc,
        "pm": args.pm,
        "patience": args.patience,
        "max_gen": args.max_gen,
        "seed": args.seed,
        "workers": args.workers,
        "capital": args.capital,
        "risk_free": args.risk_free,
    }, artifacts, skipped)
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser, params: bool = True) -> None:
    sub.add_argument("--data", required=True, help="close-price CSV (code,date,close)")
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    if params:
        sub.add_argument("--params", type=_parse_params, default=MacdParams(),
                         help="indicator periods X,Y,Z (default: 12,26,9)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="macdlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("ingest", help="load, clean, and summarize instruments")
    _add_common(p, params=False)
    p.set_defaults(func=cmd_ingest)

    p = subs.add_parser("denoise", help="emit raw vs smoothed DIF per instrument")
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = subs.add_parser("analyze", help="emit oscillation masks and divergence events")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("backtest", help="run one strategy mode and emit its reports")
    _add_common(p)
    p.add_argument("--mode", choices=MODE_CHOICES, default="raw")
    p.add_argument("--capital", type=_parse_capital, default=DEFAULT_CAPITAL)
    p.add_argument("--risk-free", type=float, default=RiskConfig().risk_free_rate,
                   help="annual risk-free rate in percent")
    p.set_defaults(func=cmd_backtest)

    p = subs.add_parser("compare", help="run all three modes over every instrument")
    _add_common(p)
    p.add_argument("--capital", type=_parse_capital, default=DEFAULT_CAPITAL)
    p.add_argument("--risk-free", type=float, default=RiskConfig().risk_free_rate)
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("optimize", help="search indicator periods with the genetic algorithm")
    _add_common(p, params=False)
    p.add_argument("--mode", choices=MODE_CHOICES, default="raw")
    p.add_argument("--code", default=None, help="instrument to optimize (required when several)")
    p.add_argument("--pop", type=int, default=GaConfig().population_size)
    p.add_argument("--pc", type=float, default=GaConfig().crossover_rate)
    p.add_argument("--pm", type=float, default=GaConfig().mutation_rate)
    p.add_argument("--patience", type=int, default=GaConfig().convergence_patience)
    p.add_argument("--max-gen", type=int, default=GaConfig().max_generations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted (must be >= 1) but unused: candidates are evaluated in "
                        "batches in one thread, so it changes neither speed nor results")
    p.add_argument("--capital", type=_parse_capital, default=DEFAULT_CAPITAL)
    p.add_argument("--risk-free", type=float, default=RiskConfig().risk_free_rate)
    p.set_defaults(func=cmd_optimize)

    return parser


# mallopt's parameter numbers in glibc's malloc.h, and the values set.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 32 << 20
_MMAP_THRESHOLD_BYTES = 4 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Keep the GA's chunk arrays on glibc's heap, and the heap a chunk
    frees mapped for the next, once per process.

    By default glibc serves each of the GA's row-chunk arrays (~256 KiB)
    with its own mmap until a freed one raises its mmap threshold, and
    hands the free top of the heap back to the OS past a small trim
    threshold, so a chunk can fault its pages in anew. Setting the trim
    threshold also freezes the mmap threshold, so both are pinned:
    allocations under 4 MiB come from the heap, and up to 32 MiB of it
    stays mapped once freed. Where the C library cannot be opened or has
    no mallopt (not glibc), nothing is changed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"macdlab: config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, ValueError) as exc:
        print(f"macdlab: data error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
