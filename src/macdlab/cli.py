"""Batch command-line front end.

Subcommands mirror the workflow: ingest -> analyze/denoise -> backtest
-> compare -> optimize. Every run writes its artifacts plus a
manifest.json under --out, and deletes the files the previous manifest
there listed that it did not write again; outputs carry no timestamps
or other run-varying content, so re-running a command reproduces them
byte-for-byte. The manifest's options are the parsed arguments, and the
JSON artifacts the library's records, not restated field by field.

Each command keeps that state in one `_Run`: --out (made at the first
write), the artifact names written, the instruments skipped, and the
manifest step, which alone prints the `wrote` lines, so a command that
fails prints none. denoise, analyze and backtest process each instrument
on its own, through one runner, `_each_instrument(args, done, write)`,
whose `write(run, series, iso)` writes one instrument's artifacts
through the run. An instrument a command cannot process (unusable after
cleaning, too short, or one of its writes raised a data error) is
skipped: no file of it is left in --out, and its reason goes to stderr
and to the manifest's "skipped". compare and optimize skip by the same
rule. The run fails only when no instrument was processed. On large
inputs the runner and compare spread the instruments over up to one
process per CPU (`forks.fork_map`), and optimize a large generation's
backtests (`BatchBacktest.nets`), with the outputs of one process.

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
from .backtest import DEFAULT_CAPITAL, SeriesCache, StrategyMode, run_backtest
from .errors import ConfigError, DataError, UnusableSeriesError
from .forks import fork_map
from .indicators import MacdParams, compute_indicators
from .ingest import REQUIRED_COLUMNS, clean, load_csv
from .metrics import REPORT_COLUMNS, RiskConfig, compute_metrics
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


# Rows formatted and written at a time: a file's text is never held
# whole (ingest's cleaned.csv of a 100 x 1,500-day panel is ~150k rows).
CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, header, columns) -> None:
    """Write a CSV from whole columns (numpy arrays or sequences of cell
    values), with the bytes csv.writer writes for the same rows of `_fmt`
    cells, `\\n` line ends."""
    columns = list(columns)
    rows = min(map(len, columns), default=0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_csv_cells(list(header))) + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            cells = [_csv_cells(_text(column[lo:lo + CSV_BLOCK_ROWS])) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


class _Run:
    """One command's output: its --out directory, the names of the
    artifacts it wrote, the instruments it skipped, and the manifest that
    lists both.

    --out is made when the first artifact path in it is formed, so a run
    that fails before it writes leaves no --out; a --out that names, or
    lies under, something other than a directory is a config error at the
    start. An artifact name that is not a plain file name (an instrument
    code with a `/`) is a data error, raised before --out is made. A name
    is recorded once its write returns: a write that raises lists nothing.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.out = Path(args.out)
        nearest = next(p for p in (self.out, *self.out.parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ConfigError(f"--out {args.out}: {nearest} is not a directory")
        self.made = False
        self.written: list[str] = []
        self.skipped: dict[str, str] = {}

    def _path(self, name: str) -> Path:
        if Path(name).name != name:
            raise DataError(f"artifact name {name!r} is not a plain file name")
        if not self.made:
            self.out.mkdir(parents=True, exist_ok=True)
            self.made = True
        return self.out / name

    def write_csv(self, name: str, header, columns) -> None:
        _write_csv(self._path(name), header, columns)
        self.written.append(name)

    def write_json(self, name: str, obj) -> None:
        _write_json(self._path(name), obj)
        self.written.append(name)

    def discard(self, names) -> None:
        """Delete the artifacts `names`."""
        for name in names:
            (self.out / name).unlink(missing_ok=True)

    def skip(self, code: str, reason) -> None:
        """Record an instrument the command cannot process, for the manifest and stderr."""
        self.skipped[code] = str(reason)
        print(f"skipped {code}: {reason}", file=sys.stderr)

    def usable(self, screened: list[tuple]) -> list:
        """The usable instruments of `screened` (a `_screen`); each unusable
        one is skipped. A data error when none is usable."""
        usable = [cleaned for _, _, cleaned, _ in screened if cleaned is not None]
        if not usable:
            raise DataError(f"no usable instrument in {self.args.data}")
        for code, _, _, unusable in screened:
            if unusable is not None:
                self.skip(code, unusable)
        return usable

    def none_done(self, done: str) -> DataError:
        """The data error when no instrument could be `done`, with every reason."""
        return DataError(f"no instrument in {self.args.data} could be {done}: "
                         + "; ".join(f"{code}: {why}" for code, why in self.skipped.items()))

    def finish(self) -> int:
        """Delete the files the previous manifest in --out listed that this
        run did not write, write the manifest, then print a `wrote` line
        for each artifact, in write order, and the manifest. Only a
        list's plain file names directly inside --out count; a file no
        manifest listed is left alone. The manifest records every option
        the command was given but --data and --out, a MacdParams as its
        list."""
        path = self._path("manifest.json")
        try:
            listed = json.loads(path.read_text(encoding="utf-8"))["artifacts"]
        except (OSError, ValueError, KeyError, TypeError):
            listed = []
        if isinstance(listed, list):
            stale = {name for name in listed if isinstance(name, str)} - set(self.written)
            for name in sorted(stale):
                if Path(name).name == name and (self.out / name).is_file():
                    (self.out / name).unlink()
        args = self.args
        options = {name: list(value.as_tuple()) if isinstance(value, MacdParams) else value
                   for name, value in vars(args).items()
                   if name not in ("command", "func", "data", "out")}
        manifest = {
            "command": args.command,
            "version": __version__,
            "data": str(args.data),
            "options": options,
            "artifacts": sorted(self.written),
        }
        if self.skipped:
            manifest["skipped"] = self.skipped
        _write_json(path, manifest)
        for name in [*self.written, path.name]:
            print(f"wrote {self.out / name}")
        return 0


def _screen(path) -> list[tuple]:
    """Every instrument in `path`, in file order, as (code, rows loaded,
    cleaned, None) or, when clean() screens it out, (code, rows loaded,
    None, the UnusableSeriesError). The loaded series is not kept."""
    screened = []
    for series in load_csv(path):
        try:
            cleaned, unusable = clean(series), None
        except UnusableSeriesError as exc:
            cleaned, unusable = None, exc
        screened.append((series.code, len(series), cleaned, unusable))
    return screened


class _IsoDates(dict):
    """Date -> ISO text, each date formatted once per command: a panel's
    instruments mostly share their trading days."""

    def __missing__(self, day):
        text = self[day] = day.isoformat()
        return text

    def column(self, series) -> list[str]:
        return list(map(self.__getitem__, series.dates))


def _each_instrument(args, done: str, write) -> int:
    """Run `write(run, series, iso)`, which writes an instrument's
    artifacts through the `_Run`, on each usable instrument by `fork_map`.
    A failed instrument's files are deleted. A data error skips it; any
    other exception also deletes the files of the instruments after it,
    then ends the command. A data error when none could be `done`; else
    the manifest."""
    run, iso = _Run(args), _IsoDates()
    usable = run.usable(_screen(args.data))

    def attempt(series) -> tuple:
        """(names written, None), or ([], a data error's text or another exception)."""
        run.written = []
        try:
            write(run, series, iso)
            return run.written, None
        except BaseException as exc:
            run.discard(run.written)
            if not isinstance(exc, Exception):
                raise
            return [], str(exc) if isinstance(exc, (DataError, ValueError)) else exc

    results = fork_map(attempt, usable, map(len, usable))
    run.written = []
    for at, (series, (names, failure)) in enumerate(zip(usable, results)):
        if isinstance(failure, Exception):
            run.discard(name for later, _ in results[at + 1:] for name in later)
            raise failure
        if failure is not None:
            run.skip(series.code, failure)
        run.written += names
    if not run.written:
        raise run.none_done(done)
    return run.finish()


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    run, iso = _Run(args), _IsoDates()
    summary, codes, dates, closes = [], [], [], []
    for code, rows, cleaned, unusable in _screen(args.data):
        if unusable is not None:
            summary.append([code, rows, "", unusable.dropped, "unusable"])
            continue
        codes += [code] * len(cleaned)
        dates += iso.column(cleaned)
        closes.append(cleaned.closes)
        summary.append([code, rows, len(cleaned), rows - len(cleaned), "ok"])
    run.write_csv("instruments.csv",
                  ["code", "rows", "rows_kept", "rows_dropped", "status"], zip(*summary))
    run.write_csv("cleaned.csv", REQUIRED_COLUMNS,
                  [codes, dates, np.concatenate(closes)] if closes else [])
    return run.finish()


def cmd_denoise(args) -> int:
    def write(run, series, iso) -> None:
        ind = compute_indicators(series, args.params)
        smooth = denoise_dif(ind.dif)
        run.write_csv(f"denoise_{series.code}.csv", ["date", "dif", "dif_denoised"],
                      [iso.column(series), ind.dif, smooth])

    return _each_instrument(args, "denoised", write)


def cmd_analyze(args) -> int:
    def write(run, series, iso) -> None:
        osc = detect_oscillation(series)  # both raise ValueError on too few days
        events = detect_divergences(series, compute_indicators(series, args.params))
        code, dates = series.code, iso.column(series)
        run.write_csv(f"oscillation_{code}.csv",
                      ["date", "close", "mean10", "inband", "pairflag", "mask"],
                      [dates, series.closes, osc.mean10, osc.inband, osc.pairflag, osc.mask])
        run.write_json(f"divergences_{code}.json", [
            {**vars(e), "current_date": dates[e.current_extreme_index],
             "previous_date": dates[e.previous_extreme_index]} for e in events])

    return _each_instrument(args, "analyzed", write)


def cmd_backtest(args) -> int:
    mode = StrategyMode(args.mode)
    risk = RiskConfig(risk_free_rate=args.risk_free)

    def write(run, series, iso) -> None:
        log = run_backtest(series, args.params, mode, args.capital)  # DataError when too short
        report = compute_metrics(log, series.span_days, risk)
        # The lines the run traded on; signal is the crossover tag before
        # divergence overrides. An unfiltered mode trades on no smoothed DIF.
        lines = log.lines
        smooth = denoise_dif(lines.dif) if mode.filter == "none" else lines.trade_dif
        code, dates = series.code, iso.column(series)
        run.write_json(f"metrics_{code}.json", report.as_dict())
        run.write_json(f"trades_{code}.json", [
            {**vars(t), "buy_date": dates[t.buy_index], "sell_date": dates[t.sell_index]}
            for t in log.trades])
        run.write_csv(f"equity_{code}.csv", ["date", "equity"], [dates, log.equity])
        run.write_csv(f"chart_{code}.csv",
                      ["date", "close", "dif", "dif_denoised", "dea", "signal"],
                      [dates, series.closes, lines.dif, smooth, lines.dea, lines.signals])

    return _each_instrument(args, "backtested", write)


def cmd_compare(args) -> int:
    """A row per instrument and mode, by `fork_map`, an unusable or failing
    instrument's marked so; each such instrument is also skipped, once,
    with its first reason. A data error when no row could be compared."""
    run = _Run(args)
    risk = RiskConfig(risk_free_rate=args.risk_free)
    screened = _screen(args.data)
    usable = run.usable(screened)

    def compare(series) -> tuple:
        """The instrument's row per mode, and the first reason a mode failed."""
        cache = SeriesCache(series)  # the modes share its EMAs, trends and divergence pairs
        rows, reason = [], None
        for mode in StrategyMode:
            try:
                log = run_backtest(cache, args.params, mode, args.capital)
                report = compute_metrics(log, series.span_days, risk)
                rows.append([series.code, mode.value, *report.as_dict().values(), "ok"])
            except (DataError, ValueError) as exc:
                rows.append([series.code, mode.value] + [""] * len(REPORT_COLUMNS) + ["error"])
                reason = str(exc) if reason is None else reason
        return rows, reason

    compared, rows = iter(fork_map(compare, usable, map(len, usable))), []
    for code, _, cleaned, _ in screened:
        if cleaned is None:
            rows += [[code, mode.value] + [""] * len(REPORT_COLUMNS) + ["unusable"]
                     for mode in StrategyMode]
            continue
        mode_rows, reason = next(compared)
        rows += mode_rows
        if reason is not None:
            run.skip(code, reason)
    if all(row[-1] != "ok" for row in rows):
        raise run.none_done("compared")
    run.write_csv("comparison.csv", ["name", "mode", *REPORT_COLUMNS, "status"], zip(*rows))
    return run.finish()


def cmd_optimize(args) -> int:
    run = _Run(args)
    mode = StrategyMode(args.mode)
    risk = RiskConfig(risk_free_rate=args.risk_free)
    usable = run.usable(_screen(args.data))
    if args.code:
        matches = [s for s in usable if s.code == args.code]
        if not matches:
            raise DataError(f"instrument {args.code!r} not found or unusable in {args.data}")
        series = matches[0]
    elif len(usable) == 1:
        series = usable[0]
        args.code = series.code
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
    cache = SeriesCache(series)  # shared by the GA and the comparison rows
    # Only the GA's chunk loop gains from the pinned heap; every other
    # command, and the screen above, runs on glibc's own thresholds.
    _keep_freed_heap()
    result = optimize(cache, mode, cfg, workers=args.workers, initial_capital=args.capital)

    best = MacdParams(*result.best_genes)
    run.write_json("best.json", {
        "code": series.code,
        "mode": mode.value,
        "fast": best.fast,
        "slow": best.slow,
        "signal": best.signal,
        "fitness": result.best_fitness,
        "generations": result.generations,
        "converged": result.converged,
    })

    run.write_csv("history.csv",
                  ["generation", "best_fitness", "mean_fitness",
                   "best_fast", "best_slow", "best_signal"],
                  zip(*([g.generation, g.best_fitness, g.mean_fitness, *g.best_genes]
                        for g in result.history)))

    comparison = []
    for label, params in (("default", MacdParams()), ("optimized", best)):
        log = run_backtest(cache, params, mode, args.capital)
        report = compute_metrics(log, series.span_days, risk)
        comparison.append([label, "{},{},{}".format(*params.as_tuple()),
                           *report.as_dict().values()])
    run.write_csv("comparison.csv", ["run", "params", *REPORT_COLUMNS], zip(*comparison))
    return run.finish()


# ------------------------------------------------------------------ parser


def _add_common(sub: argparse.ArgumentParser, params: bool = True) -> None:
    sub.add_argument("--data", required=True, help="close-price CSV (code,date,close)")
    sub.add_argument("--out", default="out", help="output directory (default: out)")
    if params:
        sub.add_argument("--params", type=_parse_params, default=MacdParams(),
                         help="indicator periods X,Y,Z (default: 12,26,9)")


# The options of the commands that run a strategy, each declared once.
_RUN_OPTIONS = {
    "--mode": dict(choices=MODE_CHOICES, default="raw",
                   help="strategy mode (default: raw)"),
    "--capital": dict(type=_parse_capital, default=DEFAULT_CAPITAL,
                      help=f"initial capital, finite and positive (default: {DEFAULT_CAPITAL:g})"),
    "--risk-free": dict(type=float, default=RiskConfig().risk_free_rate,
                        help="annual risk-free rate in percent "
                             f"(default: {RiskConfig().risk_free_rate:g})"),
}


def _add_run_options(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(name, **_RUN_OPTIONS[name])


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
    _add_run_options(p, "--mode", "--capital", "--risk-free")
    p.set_defaults(func=cmd_backtest)

    p = subs.add_parser("compare", help="run all three modes over every instrument")
    _add_common(p)
    _add_run_options(p, "--capital", "--risk-free")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("optimize", help="search indicator periods with the genetic algorithm")
    _add_common(p, params=False)
    _add_run_options(p, "--mode")
    p.add_argument("--code", default=None, help="instrument to optimize (required when several)")
    p.add_argument("--pop", type=int, default=GaConfig().population_size)
    p.add_argument("--pc", type=float, default=GaConfig().crossover_rate)
    p.add_argument("--pm", type=float, default=GaConfig().mutation_rate)
    p.add_argument("--patience", type=int, default=GaConfig().convergence_patience)
    p.add_argument("--max-gen", type=int, default=GaConfig().max_generations)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="accepted (must be >= 1) but unused: it changes neither speed nor "
                        "results (a large generation's backtests use every CPU anyway)")
    _add_run_options(p, "--capital", "--risk-free")
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
