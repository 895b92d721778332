"""Time load_csv + clean on seeded panels, and measure their memory.

    python bench/ingest.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only its public load_csv and clean are used, so it runs on
older checkouts too.

Each panel of PANELS is a CSV of `instruments` x `days` rows (code, date,
close), one seeded driftless walk per instrument,
50 * exp(cumsum(N(0, 0.015))) rounded to 4 places, with BLANKS of its
closes left empty for clean to drop, written to a temporary directory by
a forked child. The wide panel is also written with CRLF line ends, and
with every code quoted: the first block that load_csv's plain-text block
path rejects (in the quoted copy the first, for its `"`) sends the rest
of the file to csv.reader, so the quoted copy times that fallback beside
the block path on the same rows. For each panel, REPEATS children are
forked in turn by bench/_child.py's `forked`, each loading and cleaning
the file once; the parent takes each child's peak resident memory
(ru_maxrss) and CPU seconds (ru_utime + ru_stime) from wait4, and the
child reports its resident memory when it starts (the import and this
script, which the fork shares) and the seconds of its load_csv and clean
calls. One more child loads the file under tracemalloc and reports the
peak of the memory Python allocated during the call. Every child checks
that it loaded every row and that clean dropped exactly the blank
closes; a mismatch, or any error in a child, prints its traceback on
stderr and the harness exits with status 1.

--smoke runs one small panel once in each of the three forms, to show
that the harness and its checks still run.

Prints one JSON line: the machine, the settings and, per panel, its
line end and whether its codes are quoted, the rows, best_s (the best
load + clean seconds), best_cpu_s (the least CPU seconds of a repeat's
child), load_s, clean_s and cpu_s of every repeat, start_rss_mb and
maxrss_mb of every repeat, tracemalloc_peak_b and tracemalloc_b_per_row.
A child's CPU seconds are its whole life's, from the fork to its exit;
unlike wall seconds they leave out the time it waits for a core.

To compare two sources, run both from copies made alike, in one
directory (say, `git archive` of each into sibling folders), in
alternating turns. Run from two checkouts in different directories, the
same code has read 2-4% apart, in wall and in CPU seconds alike.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from _child import forked, machine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import clean, load_csv  # noqa: E402

# (name, instruments, days, line end, codes quoted): the wide panels have
# perfbench's panel_backtest shape.
PANELS = (("wide", 100, 1500, "\n", False), ("wide_crlf", 100, 1500, "\r\n", False),
          ("wide_quoted", 100, 1500, "\n", True), ("long", 25, 6000, "\n", False))
SMOKE_PANELS = (("smoke", 10, 200, "\n", False), ("smoke_crlf", 10, 200, "\r\n", False),
                ("smoke_quoted", 10, 200, "\n", True))
BLANKS, SEED, REPEATS = 3, 14, 5


def write_panel(path: Path, instruments: int, days: int, seed: int, newline: str = "\n",
                quoted: bool = False) -> None:
    rng = np.random.default_rng(seed)
    iso = [(date(2010, 1, 4) + timedelta(days=i)).isoformat() for i in range(days)]
    quote = '"' if quoted else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("code,date,close" + newline)
        for k in range(instruments):
            closes = np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.015, days))), 4)
            cells = list(map(repr, closes.tolist()))
            for i in rng.choice(np.arange(1, days - 1), size=BLANKS, replace=False).tolist():
                cells[i] = ""
            code = f"{quote}I{k:03d}{quote}"
            fh.writelines(f"{code},{day},{cell}{newline}" for day, cell in zip(iso, cells))


def load_and_clean(path: Path, instruments: int, days: int) -> tuple[float, float]:
    """Seconds of load_csv and of clean over the panel, after checking what they return."""
    start = time.perf_counter()
    series = load_csv(path)
    loaded = time.perf_counter()
    cleaned = [clean(s) for s in series]
    done = time.perf_counter()
    rows, kept = sum(map(len, series)), sum(map(len, cleaned))
    if rows != instruments * days or rows - kept != instruments * BLANKS:
        sys.exit(f"ingest: {path.name}: loaded {rows} rows and kept {kept}, "
                 f"expected {instruments * days} and {instruments * (days - BLANKS)}")
    return loaded - start, done - loaded


def timed(path: Path, instruments: int, days: int) -> dict:
    start_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    load_s, clean_s = load_and_clean(path, instruments, days)
    return {"load_s": load_s, "clean_s": clean_s, "start_kb": start_kb}


def traced(path: Path) -> dict:
    tracemalloc.start()
    load_csv(path)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"peak_b": peak}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    smoke = parser.parse_args(argv).smoke
    panels, repeats = (SMOKE_PANELS, 1) if smoke else (PANELS, REPEATS)

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, instruments, days, newline, quoted in panels:
            path = Path(tmp) / f"{name}.csv"
            forked(lambda: write_panel(path, instruments, days, SEED, newline, quoted))
            load_s, clean_s, cpu_s, start_mb, maxrss_mb = [], [], [], [], []
            for _ in range(repeats):
                reply, usage, _ = forked(lambda: timed(path, instruments, days))
                load_s.append(reply["load_s"])
                clean_s.append(reply["clean_s"])
                cpu_s.append(usage.ru_utime + usage.ru_stime)
                start_mb.append(reply["start_kb"] / 1024.0)
                maxrss_mb.append(usage.ru_maxrss / 1024.0)
            peak_b = forked(lambda: traced(path))[0]["peak_b"]
            rows = instruments * days
            out[name] = {"instruments": instruments, "days": days, "newline": newline,
                         "quoted": quoted, "rows": rows,
                         "best_s": min(map(sum, zip(load_s, clean_s))),
                         "best_cpu_s": min(cpu_s),
                         "load_s": load_s, "clean_s": clean_s, "cpu_s": cpu_s,
                         "start_rss_mb": start_mb, "maxrss_mb": maxrss_mb,
                         "tracemalloc_peak_b": peak_b, "tracemalloc_b_per_row": peak_b / rows}
    print(json.dumps({
        "machine": machine(),
        "blanks": BLANKS, "seed": SEED, "repeats": repeats, "panels": out,
    }))


if __name__ == "__main__":
    main()
