"""Measure each CLI command's peak memory, page faults and wall time.

    python bench/cli_memory.py [--repeats N] [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only `macdlab.cli.main` is called, so it runs on older
checkouts too.

The inputs are written in-process, by a forked child, from the pool
instruments of perfbench/gen.py (imported, never changed):

  panel    100 instruments of 1,500 days with BLANKS blank closes each,
           drawn by gen.pick(SEED, POOL, 100): perfbench's
           panel_backtest shape;
  compare  the first 30 instruments of the panel;
  single   one pool instrument of 1,000 days.

The commands are ingest, denoise, analyze and backtest in each mode on
the panel, compare on its first 30 instruments, and `optimize
--max-gen 3` in each mode on the single instrument. Each runs in a
child forked for it alone by bench/_child.py's `forked`, from this
process, which has imported macdlab.cli and done nothing else since, as
perfbench's worker forks its commands; the child's stdout goes to
/dev/null and its --out is deleted once it is reaped. A round runs every
command once, and --repeats (at least 1) rounds run in turn. The parent
takes the child's ru_maxrss and ru_minflt from wait4 (they cover the
command's own forked workers too: the larger peak, the summed faults)
and its wall time from the fork to the reaping. A command that returns
a status other than 0 is printed to stderr, a child that raises prints
its traceback, and either way the harness exits with status 1.

--smoke runs small inputs (10 x 200 days, compare on 3, optimize with
--pop 10 on 300 days) once, to show that the harness still runs.

Prints one line per command with the medians of its peak resident MB,
minor page faults and wall milliseconds, then one JSON line: the
machine, the settings and, per command, its argv, the medians and every
run's values.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

from _child import forked, machine

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
from macdlab import cli  # noqa: E402

MODES = ("raw", "denoised", "divergence")
SEED, POOL, BLANKS = 17, 400, 3
REPEATS = 5
# The input sizes, and the GA population (None: GaConfig's default).
SIZES = dict(panel=100, days=1500, compare=30, single_days=1000, pop=None)
SMOKE_SIZES = dict(panel=10, days=200, compare=3, single_days=300, pop=10)


def write_inputs(work: Path, panel: int, days: int, compare: int, single_days: int) -> None:
    instruments = [gen.pool_instrument(i, days, BLANKS) for i in gen.pick(SEED, POOL, panel)]
    gen.write_csv(instruments, work / "panel.csv")
    gen.write_csv(instruments[:compare], work / "compare.csv")
    gen.write_csv([gen.pool_instrument(gen.pick(SEED, POOL, 1)[0], single_days)],
                  work / "single.csv")


def commands(work: Path, pop) -> list[tuple[str, list[str]]]:
    """(label, argv without --out) of one round."""
    panel = ["--data", str(work / "panel.csv")]
    ga = ["--max-gen", "3", *(["--pop", str(pop)] if pop else [])]
    runs = [(name, [name, *panel]) for name in ("ingest", "denoise", "analyze")]
    runs += [(f"backtest {mode}", ["backtest", "--mode", mode, *panel]) for mode in MODES]
    runs.append(("compare", ["compare", "--data", str(work / "compare.csv")]))
    runs += [(f"optimize {mode}", ["optimize", "--mode", mode, *ga,
                                   "--data", str(work / "single.csv")]) for mode in MODES]
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error(f"--repeats must be at least 1, got {args.repeats}")
    sizes = SIZES
    if args.smoke:
        sizes, args.repeats = SMOKE_SIZES, 1

    runs = {}
    with tempfile.TemporaryDirectory(prefix="cli_memory_") as tmp:
        work = Path(tmp)
        forked(lambda: write_inputs(work, sizes["panel"], sizes["days"],
                                    sizes["compare"], sizes["single_days"]))
        one_round = commands(work, sizes["pop"])
        for label, argv in one_round:
            runs[label] = {"argv": argv, "maxrss_mb": [], "minflt": [], "wall_ms": []}
        for _ in range(args.repeats):
            for label, argv in one_round:
                out = work / "out"
                code, usage, wall = forked(lambda: cli.main([*argv, "--out", str(out)]))
                shutil.rmtree(out, ignore_errors=True)
                if code != 0:
                    sys.exit(f"cli_memory: {label} exited with status {code}")
                runs[label]["maxrss_mb"].append(usage.ru_maxrss / 1024.0)
                runs[label]["minflt"].append(usage.ru_minflt)
                runs[label]["wall_ms"].append(wall * 1000.0)

    print(f"{'command':<20} {'maxrss_mb':>10} {'minflt':>9} {'wall_ms':>9}")
    for label, run in runs.items():
        run["median"] = {key: statistics.median(run[key])
                         for key in ("maxrss_mb", "minflt", "wall_ms")}
        med = run["median"]
        print(f"{label:<20} {med['maxrss_mb']:>10.1f} {med['minflt']:>9.0f} "
              f"{med['wall_ms']:>9.1f}")
    print(json.dumps({
        "machine": machine(),
        "seed": SEED, "repeats": args.repeats, "sizes": sizes, "commands": runs,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
