"""Compare what the CLI of two source checkouts does, run by run.

    python bench/cli_identity.py PARENT_DIR CHANGE_DIR
    python bench/cli_identity.py --smoke

Each run of a seeded corpus is a list of macdlab commands executed in
order in a fresh working directory, each in a fresh interpreter with
PYTHONPATH=<checkout>/src. Every command gets `--out out` (relative to
the working directory) and an absolute `--data` path that both
checkouts share. A run is identical when, for every command, the exit
code, stdout and stderr are equal, and the working directory ends up
holding the same files with the same bytes. The two checkouts run side
by side, one process each.

The corpus is written in-process from fixed seeds, with numpy and the
pool instruments of perfbench/gen.py (imported, never changed). It has
ten data files: a 220-day walk, two instruments, a usable and an
unusable one, long/mid/short/unusable instruments, a 5-day series, a
total loss, a gain past the float range, an `A/B` code, a `Q,"X` code,
and 12 pool instruments of 1,500 days with 3 blank closes each. Each
file gets ingest, denoise, analyze, compare, `compare --risk-free nan`,
backtest and `optimize --pop 40 --max-gen 3` in each mode, and
`optimize --pop 1` (optimize with --code of the file's first instrument
when it holds several). Added to those: --data missing as a flag and as
a file, --data a directory for every command, an --out whose previous
manifest lists its artifacts as a string, and two reruns into one --out
(denoise of two instruments then of one; optimize then compare).

The pool file is large enough for denoise, analyze, backtest and
compare to run in several processes wherever more than one CPU is
available. So is `optimize --max-gen 1 --code <its first instrument>`
in each mode, with the default population: its first generation
(about 500 new triples of 1,500 days) splits its backtests over the
CPUs, which the `--pop 40` runs never do. Those optimize runs are added
to the pool file's, and each of these commands runs on it once more,
marked "one CPU", with the change's side pinned to one CPU by
os.sched_setaffinity inside the command's own interpreter: the forked
path of one side must give the bytes of one process on the other. With
only one CPU both sides run in one process, and a note says so.

--smoke compares the checkout this script is in with itself on a small
corpus: the two data files, the pool file with its large optimize runs
and its one-CPU runs, and `optimize --pop 10 --max-gen 1`. It shows
that the tool runs, that the CLI's outputs are deterministic, and that
one process and several give the same bytes.

Prints one line per run that differs, naming what differs, then a
summary line; exits with status 1 when any run differs.
"""

from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from datetime import date, timedelta
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402

MODES = ("raw", "denoised", "divergence")
COMMANDS = ("ingest", "denoise", "analyze", "backtest", "compare", "optimize")
# The interpreter each command runs in: macdlab's own entry point, and
# the same pinned to one of the CPUs it may run on.
ENTRY = "from macdlab.cli import entrypoint; entrypoint()"
ONE_CPU = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); " + ENTRY
# The commands that run a panel in several processes.
FORKING = ("denoise", "analyze", "backtest", "compare")
# optimize with the default population, whose first generation splits
# its backtests over several processes on a pool instrument.
LARGE_GA = ["--max-gen", "1"]


def walk(seed: int, n: int) -> np.ndarray:
    return 100.0 * np.exp(np.cumsum(np.random.default_rng(seed).normal(0.0004, 0.01, n)))


def data_files() -> dict[str, list[tuple[str, list[date], np.ndarray]]]:
    """File name -> its instruments as (code, dates, closes), NaN a blank close."""
    files = {
        "single": [("AAA.X", walk(99, 220))],
        "two": [("AAA.X", walk(7, 160)), ("BBB.Y", walk(8, 160))],
        "good_bad": [("GOOD", walk(13, 120)), ("BAD", np.zeros(100))],
        "mixed": [("LONG", walk(12, 400)), ("MID", walk(14, 12)), ("SHORT", walk(15, 6)),
                  ("BAD", np.zeros(30))],
        "short": [("A", np.full(5, 100.0))],
        "ruin": [("RUIN", np.concatenate([1e20 * np.linspace(1.0, 0.9, 40),
                                          1e20 * np.linspace(0.9, 1.0, 20), np.ones(60)]))],
        "overflow": [("UP", np.concatenate([np.ones(30), np.geomspace(1.0, 1e200, 30),
                                            1e200 * np.linspace(1.0, 0.95, 10)]))],
        "slash": [("A/B", walk(8, 120)), ("GOOD", walk(13, 120))],
        "quote": [('Q,"X', walk(21, 200)), ("PLAIN", walk(22, 200))],
    }
    start = date(2014, 1, 2)
    out = {name: [(code, [start + timedelta(days=i) for i in range(len(closes))], closes)
                  for code, closes in instruments] for name, instruments in files.items()}
    out["pool"] = [(inst.code, inst.dates, inst.closes)
                   for inst in (gen.pool_instrument(i, 1500, blanks=3) for i in gen.pick(1, 400, 12))]
    return out


def write_data(path: Path, instruments) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["code", "date", "close"])
        for code, dates, closes in instruments:
            for day, close in zip(dates, closes.tolist()):
                writer.writerow([code, day.isoformat(), "" if close != close else repr(close)])


def corpus(data_dir: Path, smoke: bool) -> list[tuple[str, list[list[str]], dict[str, str], str]]:
    """Every run as (label, commands, files placed in --out before it,
    the change side's entry code)."""
    files = data_files()
    if smoke:
        files = {name: files[name] for name in ("good_bad", "quote", "pool")}
    ga = ["--pop", "10", "--max-gen", "1"] if smoke else ["--pop", "40", "--max-gen", "3"]
    runs = []
    for name, instruments in files.items():
        data = data_dir / f"{name}.csv"
        write_data(data, instruments)
        common = ["--data", str(data), "--out", "out"]
        code = ["--code", instruments[0][0]] if len(instruments) > 1 else []
        commands = [["ingest"], ["denoise"], ["analyze"], ["compare"],
                    ["compare", "--risk-free", "nan"]]
        commands += [["backtest", "--mode", mode] for mode in MODES]
        commands += [["optimize", "--mode", mode, *ga, *code] for mode in MODES]
        commands += [["optimize", "--pop", "1", *code]]
        runs += [(f"{name}: {' '.join(argv)}", [argv + common], {}, ENTRY) for argv in commands]
        if name == "pool":
            large = [["optimize", "--mode", mode, *LARGE_GA, *code] for mode in MODES]
            runs += [(f"{name}: {' '.join(argv)}", [argv + common], {}, ENTRY) for argv in large]
            runs += [(f"{name}: {' '.join(argv)} (one CPU)", [argv + common], {}, ONE_CPU)
                     for argv in [[command] for command in FORKING] + large]

    data = str(data_dir / "good_bad.csv")
    runs.append(("no --data flag", [["backtest", "--out", "out"]], {}, ENTRY))
    runs.append(("missing --data file",
                 [["denoise", "--data", str(data_dir / "missing.csv"), "--out", "out"]], {},
                 ENTRY))
    (data_dir / "folder").mkdir()
    runs += [(f"--data a directory: {command}",
              [[command, "--data", str(data_dir / "folder"), "--out", "out"]], {}, ENTRY)
             for command in COMMANDS]
    runs.append(("good_bad: denoise over a manifest listing a string",
                 [["denoise", "--data", data, "--out", "out"]],
                 {"manifest.json": '{"artifacts": "ab"}', "a": "a", "b": "b"}, ENTRY))
    one = data_dir / "plain.csv"
    write_data(one, files["quote"][1:])
    runs.append(("quote: denoise, then denoise of PLAIN alone",
                 [["denoise", "--data", str(data_dir / "quote.csv"), "--out", "out"],
                  ["denoise", "--data", str(one), "--out", "out"]], {}, ENTRY))
    runs.append(("good_bad: optimize, then compare",
                 [["optimize", *ga, "--code", "GOOD", "--data", data, "--out", "out"],
                  ["compare", "--data", data, "--out", "out"]], {}, ENTRY))
    return runs


def execute(checkout: Path, cwd: Path, commands, placed: dict[str, str], entry: str):
    """Run `commands` in `cwd` on `checkout`, each by `entry`; return each
    command's (exit code, stdout, stderr) and every file left under `cwd`."""
    cwd.mkdir(parents=True)
    if placed:
        (cwd / "out").mkdir()
    for name, text in placed.items():
        (cwd / "out" / name).write_text(text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    outcomes = []
    for argv in commands:
        done = subprocess.run([sys.executable, "-c", entry, *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=900)
        outcomes.append((done.returncode, done.stdout, done.stderr))
    files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
    return outcomes, files


def last_line(stream: bytes) -> str:
    lines = stream.decode("utf-8", "replace").strip().splitlines()
    return repr(lines[-1][:160]) if lines else "''"


def differences(commands, parent, change) -> list[str]:
    """What differs between the two sides of one run, in words."""
    found = []
    for argv, (p_exit, p_out, p_err), (c_exit, c_out, c_err) in zip(commands, parent[0],
                                                                      change[0]):
        what = []
        if p_exit != c_exit:
            what.append(f"exit {p_exit} -> {c_exit}")
        if p_out != c_out:
            what.append("stdout")
        if p_err != c_err:
            what.append(f"stderr {last_line(p_err)} -> {last_line(c_err)}")
        if what:
            found.append(f"[{argv[0]}] " + ", ".join(what))
    p_files, c_files = parent[1], change[1]
    for name in sorted(p_files.keys() | c_files.keys()):
        if name not in c_files:
            found.append(f"{name} only in parent")
        elif name not in p_files:
            found.append(f"{name} only in change")
        elif p_files[name] != c_files[name]:
            found.append(f"{name} differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--smoke", action="store_true",
                        help="compare this checkout with itself on a small corpus")
    args = parser.parse_args(argv)
    if args.smoke:
        args.parent = args.parent or ROOT
        args.change = args.change or ROOT
    elif args.change is None:
        parser.error("give PARENT_DIR and CHANGE_DIR, or --smoke")
    checkouts = [path.resolve() for path in (args.parent, args.change)]
    for checkout in checkouts:
        if not (checkout / "src" / "macdlab" / "cli.py").is_file():
            parser.error(f"no macdlab source under {checkout / 'src'}")

    with tempfile.TemporaryDirectory(prefix="cli_identity_") as tmp, \
            ThreadPoolExecutor(2) as pool:
        work = Path(tmp)
        (work / "data").mkdir()
        runs = corpus(work / "data", args.smoke)
        differing = 0
        for index, (label, commands, placed, entry) in enumerate(runs):
            sides = pool.map(lambda side: execute(checkouts[side], work / str(side) / str(index),
                                                  commands, placed, (ENTRY, entry)[side]),
                             (0, 1))
            found = differences(commands, *sides)
            if found:
                differing += 1
                print(f"DIFFERS {label}: " + "; ".join(found))
    if len(os.sched_getaffinity(0)) == 1:
        print("note: only one CPU, so the one-CPU runs compare one process with one process")
    print(f"{len(runs)} runs, {len(runs) - differing} identical, {differing} differ "
          f"({checkouts[0]} vs {checkouts[1]})")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
