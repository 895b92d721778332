"""Time load_csv + clean on seeded panels, and measure their memory.

    python bench/ingest.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only its public load_csv and clean are used, so it runs on
older checkouts too.

Each panel of PANELS is a CSV of `instruments` x `days` rows (code, date,
close), one seeded driftless walk per instrument,
50 * exp(cumsum(N(0, 0.015))) rounded to 4 places, with BLANKS of its
closes left empty for clean to drop, written to a temporary directory by
a forked child. For each panel, REPEATS children are forked in turn,
each loading and cleaning the file once; the parent takes each child's
peak resident memory (ru_maxrss from wait4), and the child reports its
resident memory when it starts (the import and this script, which the
fork shares) and the seconds of its load_csv and clean calls. One more
child loads the file under tracemalloc and reports the peak of the
memory Python allocated during the call. Every child checks that it
loaded every row and that clean dropped exactly the blank closes; a
mismatch, or any error in a child, is printed to stderr and the harness
exits with status 1.

--smoke runs one small panel once, to show that the harness and its
checks still run.

Prints one JSON line: the machine, the settings and, per panel, the
rows, best_s (the best load + clean seconds), load_s and clean_s of
every repeat, start_rss_mb and maxrss_mb of every repeat,
tracemalloc_peak_b and tracemalloc_b_per_row.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
import tracemalloc
from datetime import date, timedelta
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import clean, load_csv  # noqa: E402

# (name, instruments, days): the first is perfbench's panel_backtest shape.
PANELS = (("wide", 100, 1500), ("long", 25, 6000))
SMOKE_PANELS = (("smoke", 10, 200),)
BLANKS, SEED, REPEATS = 3, 14, 5


def write_panel(path: Path, instruments: int, days: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    iso = [(date(2010, 1, 4) + timedelta(days=i)).isoformat() for i in range(days)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("code,date,close\n")
        for k in range(instruments):
            closes = np.round(50.0 * np.exp(np.cumsum(rng.normal(0.0, 0.015, days))), 4)
            cells = list(map(repr, closes.tolist()))
            for i in rng.choice(np.arange(1, days - 1), size=BLANKS, replace=False).tolist():
                cells[i] = ""
            fh.writelines(f"I{k:03d},{day},{cell}\n" for day, cell in zip(iso, cells))


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


def in_child(work) -> tuple[dict, int]:
    """Run `work()` in a forked child; its JSON reply and the child's ru_maxrss (KiB)."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 1
        try:
            os.write(write_fd, json.dumps(work()).encode())
            status = 0
        except BaseException:  # a failed check's SystemExit too: say why on stderr
            traceback.print_exc()
            raise
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not data:
        sys.exit(f"ingest: a child ended without a reply (exit code {code})")
    return json.loads(data), usage.ru_maxrss


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
        for name, instruments, days in panels:
            path = Path(tmp) / f"{name}.csv"
            in_child(lambda: write_panel(path, instruments, days, SEED) or {})
            load_s, clean_s, start_mb, maxrss_mb = [], [], [], []
            for _ in range(repeats):
                reply, maxrss_kb = in_child(lambda: timed(path, instruments, days))
                load_s.append(reply["load_s"])
                clean_s.append(reply["clean_s"])
                start_mb.append(reply["start_kb"] / 1024.0)
                maxrss_mb.append(maxrss_kb / 1024.0)
            peak_b = in_child(lambda: traced(path))[0]["peak_b"]
            rows = instruments * days
            out[name] = {"instruments": instruments, "days": days, "rows": rows,
                         "best_s": min(map(sum, zip(load_s, clean_s))),
                         "load_s": load_s, "clean_s": clean_s,
                         "start_rss_mb": start_mb, "maxrss_mb": maxrss_mb,
                         "tracemalloc_peak_b": peak_b, "tracemalloc_b_per_row": peak_b / rows}
    print(json.dumps({
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
        "blanks": BLANKS, "seed": SEED, "repeats": repeats, "panels": out,
    }))


if __name__ == "__main__":
    main()
