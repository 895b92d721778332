"""Batch command-line front end.

Subcommands mirror the workflow: ingest -> analyze/denoise -> backtest
-> compare -> optimize. Every run writes its artifacts plus a
manifest.json under --out, and deletes the files the previous manifest
there listed that it did not write again; outputs carry no timestamps
or other run-varying content, so re-running a command reproduces them
byte-for-byte. The manifest's options are the parsed arguments, and the
JSON artifacts the library's records, not restated field by field.

Each command runs in one `_Run`: --out, the staging directory every
artifact is written into, the names written and the instruments
skipped. Its last step, `_Run.finish`, which `main` runs after every
command, moves the artifacts, then the manifest, into --out and alone
prints the `wrote` lines; the staging directory is removed however the
command ends, so --out changes only when a command succeeds. denoise,
analyze, backtest and compare run each instrument through one runner,
`_each_instrument(run, done, work)`, where `work(run, series)` writes the
instrument's artifacts (compare's returns its table's values). An
instrument a command cannot process (unusable, too short, or its work
raised a data error, such as a code that cannot name a file) is skipped:
its reason goes to stderr and to the manifest's "skipped". optimize
skips an unusable instrument by the same rule. The run fails only when
no instrument was processed. On large inputs the runner spreads the
instruments over up to one process per CPU (`forks.fork_map`), and
optimize a large generation's backtests (`SeriesCache.nets`).

A CSV artifact holds csv.writer's bytes for its rows of `_fmt` cells, a
JSON one `json.dumps(indent=2, sort_keys=True)`'s. orjson writes what it
writes alike (`_text`, `_json_text`), imported only there: optimize and
compare never load it.

Exit codes: 0 success, 1 usage/config error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import errno
import functools
import io
import json
import math
import os
import shutil
import sys
import tempfile
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

# An instrument-day's weight in row-days (forks.ROW_DAYS_PER_PROCESS): a
# second process pays for denoise, the cheapest command a day, from 6,000 days.
ROW_DAYS_PER_DAY = 33


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


def _as_repr(values: np.ndarray) -> np.ndarray:
    """Where orjson writes a float64 array's floats as `repr` does: not
    where `repr` writes an exponent (|x| < 1e-4 or >= 1e16 but 0: `1e+16`
    against `1e16`), nor nan and inf (orjson's `null`)."""
    size = np.abs(values)
    return (values == 0) | ((size >= 1e-4) & (size < 1e16))


def _leaves(items, texts: list, floats: list, ints: list) -> bool:
    """Add the strings (keys too), floats and ints in `items` to their lists; False
    at any value but these, None, bools, lists, tuples and dicts of str keys."""
    for value in items:
        kind = type(value)
        if kind is str:
            texts.append(value)
        elif kind is float:
            floats.append(value)
        elif kind is int:
            ints.append(value)
        elif kind is dict:
            if not set(map(type, value)) <= {str} or not _leaves(value.values(), texts, floats, ints):
                return False
            texts += value
        elif kind is list or kind is tuple:
            if not _leaves(value, texts, floats, ints):
                return False
        elif value is not None and kind is not bool:
            return False
    return True


def _json_text(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, by orjson for a list
    whose `_leaves` it writes alike (the trades and divergence records):
    printable ASCII (json.dumps escapes every other character, orjson
    only some), ints of 64 bits (orjson's range) and `_as_repr` floats.
    Any other value, dict documents included, goes through json.dumps."""
    texts, floats, ints = [], [], []
    if type(obj) is list and _leaves(obj, texts, floats, ints):
        text = "".join(texts)
        if (text.isascii() and text.isprintable() and _as_repr(np.array(floats)).all()
                and -2**63 <= min(ints, default=0) and max(ints, default=0) < 2**64):
            import orjson  # here, not at the top: optimize and compare write no record list

            return orjson.dumps(obj, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS).decode()
    return json.dumps(obj, indent=2, sort_keys=True)


def _write_json(path: Path, obj) -> None:
    text = _json_text(obj) + "\n"  # no file if obj cannot be encoded
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv_cell(text: str) -> str:
    """`text` as csv.writer writes it inside a row of several cells."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _text(column) -> list[str]:
    """The cells of one column as csv.writer writes `_fmt` of each.

    orjson writes a float, int or bool numpy column whole, as a native,
    contiguous float64, int or uint8 array, and `repr` the floats
    `_as_repr` rejects; no such cell needs quoting. Anything else goes
    cell by cell, through csv.writer only if a cell holds a character it
    may quote."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "fiub":
        import orjson  # here, not at the top: optimize and compare write no numpy column

        dtype = {"f": np.float64, "b": np.uint8}.get(column.dtype.kind, column.dtype.newbyteorder("="))
        with np.errstate(invalid="ignore"):  # a float32 signalling nan widens quietly
            values = np.ascontiguousarray(column, dtype)
        if not len(values):
            return []
        cells = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        if values.dtype.kind == "f":
            odd = np.flatnonzero(~_as_repr(values))
            for i, value in zip(odd.tolist(), values[odd].tolist()):
                cells[i] = repr(value)
        return cells
    cells = [v if type(v) is str else _fmt(v) for v in column]
    joined = "".join(cells)
    if any(char in joined for char in ',"\r\n'):
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
        fh.write(",".join(_text(list(header))) + "\n")
        for lo in range(0, rows, CSV_BLOCK_ROWS):
            cells = [_text(column[lo:lo + CSV_BLOCK_ROWS]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


class _IsoDates(dict):
    """Date -> ISO text, each date formatted once per command: a panel's
    instruments mostly share their trading days."""

    def __missing__(self, day):
        text = self[day] = day.isoformat()
        return text

    def column(self, series) -> list[str]:
        return list(map(self.__getitem__, series.dates))


class _Run:
    """One command's output: its --out directory, the staging directory
    its artifacts are written into, their names, the instruments skipped,
    and the manifest that lists both; and `iso`, the command's dates as
    ISO text.

    The staging directory is made at the start, before any fork, so that
    every process writes into it: by `tempfile.mkdtemp` in the deepest
    existing directory of --out's path. `finish` moves the artifacts into
    --out; the run, as a context manager, removes the staging directory
    however it ends. A --out that is, or lies under, something other than
    a directory, or where no staging directory can be made, is a config
    error. An artifact name that is not a plain file name (a code with a
    `/`), or that is too long for one, is a data error. A write that
    raises lists nothing.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.out = Path(args.out)
        nearest = next(p for p in (self.out, *self.out.parents) if p.exists() or p.is_symlink())
        if not nearest.is_dir():
            raise ConfigError(f"--out {args.out}: {nearest} is not a directory")
        try:
            self.staging = Path(tempfile.mkdtemp(prefix=".macdlab-", dir=nearest))
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: cannot make a staging directory: {exc}") from None
        self.written: list[str] = []
        self.skipped: dict[str, str] = {}
        self.iso = _IsoDates()

    def __enter__(self) -> _Run:
        return self

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.staging, ignore_errors=True)

    def _write(self, name: str, write, *args) -> None:
        """`write(path, *args)` to the staging directory's `name`, then list it."""
        if Path(name).name != name:
            raise DataError(f"artifact name {name!r} is not a plain file name")
        try:
            write(self.staging / name, *args)
        except OSError as exc:
            if exc.errno != errno.ENAMETOOLONG:
                raise
            raise DataError(f"artifact name {name!r} is too long for a file name") from None
        self.written.append(name)

    def write_csv(self, name: str, header, columns) -> None:
        self._write(name, _write_csv, header, columns)

    def write_json(self, name: str, obj) -> None:
        self._write(name, _write_json, obj)

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

    def finish(self) -> int:
        """Write the manifest into the staging directory, delete the files
        the previous manifest in --out listed that this run did not write
        (only plain names directly inside --out), move each artifact, then
        the manifest, into --out (made here), and print a `wrote` line for
        each, in write order. The manifest records every option but --data
        and --out, a MacdParams as its list. A directory in --out where an
        artifact or the manifest goes (a symlink is replaced like a file) is
        a config error, raised before anything in --out changes."""
        args = self.args
        names = [*self.written, "manifest.json"]
        staging, out = f"{self.staging}/", f"{self.out}/"  # str joins cost less than Paths
        for name in names:
            if os.path.isdir(out + name) and not os.path.islink(out + name):
                raise ConfigError(f"--out {args.out}: {out + name} is a directory")
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
        _write_json(self.staging / "manifest.json", manifest)
        try:
            listed = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))["artifacts"]
        except (OSError, ValueError, KeyError, TypeError):
            listed = []
        if isinstance(listed, list):
            stale = {name for name in listed if isinstance(name, str)} - set(self.written)
            for name in sorted(stale):
                if Path(name).name == name and (self.out / name).is_file():
                    (self.out / name).unlink()
        self.out.mkdir(parents=True, exist_ok=True)
        for name in names:
            os.replace(staging + name, out + name)
        print(*(f"wrote {self.out / name}" for name in names), sep="\n")
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


def _each_instrument(run: _Run, done: str, work) -> list[tuple]:
    """Run `work(run, series)`, which may write artifacts through `run`,
    on each usable instrument by `fork_map`; return every instrument of
    --data in file order as (code, work's result, status), status "ok",
    "unusable" or "error" (result None). An unusable instrument, or one
    whose work raised a data error, is skipped; any other exception ends
    the command, each process stopping with the instrument it holds. A
    data error when none could be `done`."""
    screened = _screen(run.args.data)
    usable = run.usable(screened)

    def attempt(series) -> tuple:
        """(work's result, names written, None), or (None, [], a data error's text)."""
        run.written = []
        try:
            return work(run, series), run.written, None
        except (DataError, ValueError) as exc:
            return None, [], str(exc)

    results = iter(fork_map(attempt, usable, [len(s) * ROW_DAYS_PER_DAY for s in usable]))
    run.written, outcomes = [], []
    for code, _, cleaned, _ in screened:
        if cleaned is None:
            outcomes.append((code, None, "unusable"))
            continue
        result, names, reason = next(results)
        if reason is not None:
            run.skip(code, reason)
        run.written += names
        outcomes.append((code, result, "ok" if reason is None else "error"))
    if all(status != "ok" for _, _, status in outcomes):
        raise DataError(f"no instrument in {run.args.data} could be {done}: "
                        + "; ".join(f"{code}: {why}" for code, why in run.skipped.items()))
    return outcomes


# ---------------------------------------------------------------- commands


def cmd_ingest(args, run: _Run) -> None:
    summary, codes, dates, closes = [], [], [], []
    for code, rows, cleaned, unusable in _screen(args.data):
        if unusable is not None:
            summary.append([code, rows, "", unusable.dropped, "unusable"])
            continue
        codes += [code] * len(cleaned)
        dates += run.iso.column(cleaned)
        closes.append(cleaned.closes)
        summary.append([code, rows, len(cleaned), rows - len(cleaned), "ok"])
    run.write_csv("instruments.csv",
                  ["code", "rows", "rows_kept", "rows_dropped", "status"], zip(*summary))
    run.write_csv("cleaned.csv", REQUIRED_COLUMNS,
                  [codes, dates, np.concatenate(closes)] if closes else [])


def cmd_denoise(args, run: _Run) -> None:
    def write(run, series) -> None:
        ind = compute_indicators(series, args.params)
        smooth = denoise_dif(ind.dif)
        run.write_csv(f"denoise_{series.code}.csv", ["date", "dif", "dif_denoised"],
                      [run.iso.column(series), ind.dif, smooth])

    _each_instrument(run, "denoised", write)


def cmd_analyze(args, run: _Run) -> None:
    def write(run, series) -> None:
        osc = detect_oscillation(series)  # both raise ValueError on too few days
        events = detect_divergences(series, compute_indicators(series, args.params))
        code, dates = series.code, run.iso.column(series)
        run.write_csv(f"oscillation_{code}.csv", ["date", "close", *vars(osc)],
                      [dates, series.closes, *vars(osc).values()])
        run.write_json(f"divergences_{code}.json", [
            {**vars(e), "current_date": dates[e.current_extreme_index],
             "previous_date": dates[e.previous_extreme_index]} for e in events])

    _each_instrument(run, "analyzed", write)


def cmd_backtest(args, run: _Run) -> None:
    mode = StrategyMode(args.mode)
    risk = RiskConfig(risk_free_rate=args.risk_free)

    def write(run, series) -> None:
        log = run_backtest(series, args.params, mode, args.capital)  # DataError when too short
        report = compute_metrics(log, series.span_days, risk)
        # The lines the run traded on; signal is the crossover tag before
        # divergence overrides. An unfiltered mode trades on no smoothed DIF.
        lines = log.lines
        smooth = denoise_dif(lines.dif) if mode.filter == "none" else lines.trade_dif
        code, dates = series.code, run.iso.column(series)
        run.write_json(f"metrics_{code}.json", report.as_dict())
        run.write_json(f"trades_{code}.json", [
            {**vars(t), "buy_date": dates[t.buy_index], "sell_date": dates[t.sell_index]}
            for t in log.trades])
        run.write_csv(f"equity_{code}.csv", ["date", "equity"], [dates, log.equity])
        run.write_csv(f"chart_{code}.csv",
                      ["date", "close", "dif", "dif_denoised", "dea", "signal"],
                      [dates, series.closes, lines.dif, smooth, lines.dea, lines.signals])

    _each_instrument(run, "backtested", write)


def cmd_compare(args, run: _Run) -> None:
    """A row per instrument and mode; an instrument the runner did not
    compare has blank cells, marked with its status."""
    risk = RiskConfig(risk_free_rate=args.risk_free)

    def compare(run, series) -> list[list]:
        """Each mode's metric values. The modes share one SeriesCache (its
        EMAs, trends and divergence pairs); what any mode rejects, the
        series' length or the capital, every mode rejects."""
        cache = SeriesCache(series)
        return [list(compute_metrics(run_backtest(cache, args.params, mode, args.capital),
                                     series.span_days, risk).as_dict().values())
                for mode in StrategyMode]

    blank = [[""] * len(REPORT_COLUMNS)] * len(StrategyMode)
    rows = [[code, mode.value, *cells, status]
            for code, values, status in _each_instrument(run, "compared", compare)
            for mode, cells in zip(StrategyMode, values or blank)]
    run.write_csv("comparison.csv", ["name", "mode", *REPORT_COLUMNS, "status"], zip(*rows))


def cmd_optimize(args, run: _Run) -> None:
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
        **vars(best),
        "fitness": result.best_fitness,
        "generations": result.generations,
        "converged": result.converged,
    })

    run.write_csv("history.csv",
                  ["generation", "best_fitness", "mean_fitness",
                   *(f"best_{name}" for name in vars(best))],
                  zip(*([g.generation, g.best_fitness, g.mean_fitness, *g.best_genes]
                        for g in result.history)))

    comparison = []
    for label, params in (("default", MacdParams()), ("optimized", best)):
        log = run_backtest(cache, params, mode, args.capital)
        report = compute_metrics(log, series.span_days, risk)
        comparison.append([label, "{},{},{}".format(*params.as_tuple()),
                           *report.as_dict().values()])
    run.write_csv("comparison.csv", ["run", "params", *REPORT_COLUMNS], zip(*comparison))


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
        with _Run(args) as run:
            args.func(args, run)
            return run.finish()
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
