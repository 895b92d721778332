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
manifest step. denoise, analyze and backtest process each instrument on
its own, through one runner, `_each_instrument(args, done, write)`, whose
`write(run, series, iso)` writes one instrument's artifacts through the
run. An instrument a command cannot process (unusable after cleaning,
too short, or one of its writes raised a data error) is skipped: no file
of it is left in --out, and its reason goes to stderr and to the
manifest's "skipped". compare and optimize skip by the same rule. The
run fails only when no instrument was processed. On large inputs the
runner spreads the instruments over up to one process per CPU, with the
outputs of one process (`_each_instrument`).

Exit codes: 0 success, 1 usage/config error, 2 data or domain error.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import ctypes
import functools
import io
import itertools
import json
import math
import os
import pickle
import signal
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import detect_divergences, detect_oscillation
from .backtest import DEFAULT_CAPITAL, SeriesCache, StrategyMode, run_backtest
from .errors import ConfigError, DataError, UnusableSeriesError
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


class _Run:
    """One command's output: its --out directory, the names of the
    artifacts it wrote, the instruments it skipped, and the manifest that
    lists both.

    --out is made when the first artifact path in it is formed, so a run
    that fails before it writes leaves no --out. An artifact name that is
    not a plain file name (an instrument code with a `/`) is a data error,
    raised before --out is made. A name is recorded once its write
    returns: a write that raises lists nothing.
    """

    def __init__(self, args) -> None:
        self.args = args
        self.out = Path(args.out)
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

    def discard(self, mark: int) -> None:
        """Delete and unlist the artifacts written since `len(self.written)` was `mark`."""
        for name in self.written[mark:]:
            (self.out / name).unlink(missing_ok=True)
        del self.written[mark:]

    def skip(self, code: str, reason) -> None:
        """Record an instrument the command cannot process, for the manifest and stderr."""
        self.skipped[code] = str(reason)
        print(f"skipped {code}: {reason}", file=sys.stderr)

    def usable(self, screened: list[tuple]) -> list:
        """The usable instruments of `screened` (a `_screen`); each unusable
        one is skipped. A data error when none is usable."""
        usable = [cleaned for _, cleaned, _ in screened if cleaned is not None]
        if not usable:
            raise DataError(f"no usable instrument in {self.args.data}")
        for series, _, unusable in screened:
            if unusable is not None:
                self.skip(series.code, unusable)
        return usable

    def none_done(self, done: str) -> DataError:
        """The data error when no instrument could be `done`, with every reason."""
        return DataError(f"no instrument in {self.args.data} could be {done}: "
                         + "; ".join(f"{code}: {why}" for code, why in self.skipped.items()))

    def finish(self) -> int:
        """Delete the files the previous manifest in --out listed that this
        run did not write, then write the manifest. Only a list's plain
        file names directly inside --out count; a file no manifest listed
        is left alone. The manifest records every option the command was
        given but --data and --out, a MacdParams as its list."""
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
        return 0


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


class _IsoDates(dict):
    """Date -> ISO text, each date formatted once per command: a panel's
    instruments mostly share their trading days."""

    def __missing__(self, day):
        text = self[day] = day.isoformat()
        return text

    def column(self, series) -> list[str]:
        return list(map(self.__getitem__, series.dates))


def _run_block(run, iso, write, block) -> None:
    """Run `write(run, series, iso)` on each series of `block`. A data
    error skips the instrument; any other exception is raised. Either way
    the files written for the instrument are first deleted and unlisted,
    so it leaves none."""
    for series in block:
        mark = len(run.written)
        try:
            write(run, series, iso)
        except (DataError, ValueError) as exc:
            run.discard(mark)
            run.skip(series.code, exc)
        except BaseException:
            run.discard(mark)
            raise


# The fewest usable days a process is given. A forked child costs 5-10
# ms (the fork of a ~35 MB process, copy-on-write faults, the reaping);
# on a 2-core x86_64 host, denoise, the cheapest command per day, ran no
# faster in two processes than in one on 4 x 1,500 days, and ~20%
# faster on 8 x 1,500.
DAYS_PER_PROCESS = 6000


def _processes(usable: list) -> int:
    """How many processes run `usable`: one per CPU this process may run
    on, at most one per instrument and per DAYS_PER_PROCESS days. One
    where os.fork or os.sched_getaffinity is missing, or where another
    thread runs (a forked child would hold only the calling thread)."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")) \
            or threading.active_count() > 1:
        return 1
    days = sum(map(len, usable))
    return max(1, min(len(os.sched_getaffinity(0)), len(usable), days // DAYS_PER_PROCESS))


def _blocks(usable: list, count: int) -> list[list]:
    """`usable` cut into `count` (at most len(usable)) contiguous,
    non-empty blocks of about equal days each."""
    ends = list(itertools.accumulate(map(len, usable)))
    cuts = [0]
    for k in range(1, count):
        cut = bisect.bisect_left(ends, ends[-1] * k / count) + 1
        cuts.append(min(max(cut, cuts[-1] + 1), len(usable) - count + k))
    cuts.append(len(usable))
    return [usable[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _block_reply(run: _Run, iso: _IsoDates, write, block: list) -> bytes:
    """Run `block` in a forked child, on its copy of `run`, and return
    what the parent needs to carry on as if it had run the block itself:
    the artifact names written, the instruments skipped, the stdout and
    stderr text, and the exception that ended the block, if one did (the
    parent raises it, whatever it is)."""
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    run.written, run.skipped, error = [], {}, None
    try:
        _run_block(run, iso, write, block)
    except BaseException as exc:
        error = exc
    return pickle.dumps((run.written, run.skipped, sys.stdout.getvalue(),
                         sys.stderr.getvalue(), error))


class _Child:
    """A forked process that runs one block of instruments and sends its
    `_block_reply` through a pipe.

    The child never returns into its caller: whatever happens, it ends
    with os._exit, exit status 0 once its reply is sent. The parent reads
    the reply with `merge` (or `drop`), and kills and reaps a child it has
    not read with `reap`.
    """

    def __init__(self, run: _Run, iso: _IsoDates, write, block: list) -> None:
        parent = os.getpid()
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
            if self.pid == 0:
                os.close(read_fd)
                with open(write_fd, "wb") as fh:
                    fh.write(_block_reply(run, iso, write, block))
                os._exit(0)
        except BaseException:
            if os.getpid() == parent:  # the fork failed
                os.close(read_fd)
            raise
        finally:
            if os.getpid() != parent:
                os._exit(1)
            os.close(write_fd)
        self.reply = open(read_fd, "rb")

    def _result(self) -> tuple:
        """The child's reply, once it has ended and been reaped."""
        with self.reply:
            data = self.reply.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status or not data:
            raise RuntimeError(f"a worker process ended without its result "
                               f"(exit status {os.waitstatus_to_exitcode(status)})")
        return pickle.loads(data)

    def merge(self, run: _Run) -> None:
        """Add the child's artifacts and skips to `run`, print what it
        printed, and raise the exception that ended its block, if any."""
        written, skipped, out, err, error = self._result()
        run.written += written
        run.skipped.update(skipped)
        sys.stdout.write(out)
        sys.stderr.write(err)
        if error is not None:
            raise error

    def drop(self, run: _Run) -> None:
        """Delete the artifacts of a child not merged: the run failed
        before its block."""
        if self.pid is not None:
            for name in self._result()[0]:
                (run.out / name).unlink(missing_ok=True)

    def reap(self) -> None:
        """Kill and reap the child if it has not been reaped."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        self.reply.close()


def _each_instrument(args, done: str, write) -> int:
    """Run `write(run, series, iso)` on each usable instrument: it writes
    the instrument's artifacts through the `_Run`. An instrument it raises
    a data error on is skipped with its reason, and the files written for
    it are deleted and unlisted, so it leaves no file. Any other exception
    deletes the instrument's files too, then ends the command. A data
    error when no instrument could be `done`; else the manifest.

    The usable instruments are cut into `_processes` blocks: this process
    runs the first, a forked `_Child` each other one, all at once. The
    children's results are merged in instrument order, so --out, the
    manifest, stdout, stderr and the outcome are those of one process
    running every block in turn; when a block fails, the artifacts of the
    blocks after it are deleted, as they would never have been written.
    """
    run, iso = _Run(args), _IsoDates()
    usable = run.usable(_screen(args.data))
    first, *rest = _blocks(usable, _processes(usable))
    children = []
    try:
        if rest:
            sys.stdout.flush()  # a child must inherit no unwritten text
            sys.stderr.flush()  # that it could write a second time
        for block in rest:
            children.append(_Child(run, iso, write, block))
        _run_block(run, iso, write, first)
        for child in children:
            child.merge(run)
    except BaseException:
        for child in children:
            child.drop(run)
        raise
    finally:
        for child in children:
            child.reap()
    if not run.written:
        raise run.none_done(done)
    return run.finish()


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    run, iso = _Run(args), _IsoDates()
    summary, cleaned_rows = [], []
    for series, cleaned, unusable in _screen(args.data):
        if unusable is not None:
            summary.append([series.code, len(series), "", unusable.dropped, "unusable"])
            continue
        cleaned_rows += zip([cleaned.code] * len(cleaned), iso.column(cleaned),
                            cleaned.closes.tolist())
        summary.append([series.code, len(series), len(cleaned),
                        len(series) - len(cleaned), "ok"])
    run.write_csv("instruments.csv",
                  ["code", "rows", "rows_kept", "rows_dropped", "status"], zip(*summary))
    run.write_csv("cleaned.csv", REQUIRED_COLUMNS, zip(*cleaned_rows))
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
        # divergence overrides. Raw mode trades on no smoothed DIF.
        lines = log.lines
        smooth = denoise_dif(lines.dif) if mode is StrategyMode.RAW else lines.trade_dif
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
    """A row per instrument and mode, an unusable or failing instrument's
    marked so; each such instrument is also skipped, once, with its first
    reason. A data error when no row could be compared."""
    run = _Run(args)
    risk = RiskConfig(risk_free_rate=args.risk_free)
    screened, rows = _screen(args.data), []
    run.usable(screened)
    for series, cleaned, unusable in screened:
        if unusable is not None:
            for mode in StrategyMode:
                rows.append([series.code, mode.value] + [""] * len(REPORT_COLUMNS) + ["unusable"])
            continue
        cache = SeriesCache(cleaned)  # the modes share its EMAs, trends and divergence pairs
        for mode in StrategyMode:
            try:
                log = run_backtest(cache, args.params, mode, args.capital)
                report = compute_metrics(log, cleaned.span_days, risk)
                rows.append([series.code, mode.value, *report.as_dict().values(), "ok"])
            except (DataError, ValueError) as exc:
                rows.append([series.code, mode.value] + [""] * len(REPORT_COLUMNS) + ["error"])
                if series.code not in run.skipped:
                    run.skip(series.code, exc)
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
                   help="accepted (must be >= 1) but unused: candidates are evaluated in "
                        "batches in one thread, so it changes neither speed nor results")
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
