"""The macdlab benchmark: one command, every metric, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; macdlab is imported from ./src.
For the workload, the benchmark

  1. times SETUP_REPEATS fresh interpreters that each import macdlab and
     generate and write the seeded input CSV (setup_s is their median);
  2. takes references from the library's scalar path and checks them
     against pins.json, which must pin every instrument drawn;
  3. starts one worker interpreter that imports macdlab once and forks a
     fresh child for every CLI command, `macdlab.cli.main(argv)` with a
     fresh --out each; rounds of commands run until S seconds have
     passed, and every command's artifacts are checked as it goes;
  4. prints a line of machine info, then the result as one JSON line.

With --trace 0 the result holds the end-to-end metrics. With --trace 1
every command runs twice per round, once plain and once traced (see
tracer.py), and the result holds the per-layer metrics of the traced
runs plus the tracing overhead.

Other uses:
  run.py --write-spec          rewrite BENCHMARK.json from spec.py
  run.py --pin                 pin the expected outcome of every pool instrument
  run.py --fit-probe --workload NAME
                               print the probe exponent fitted on its commands
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"

import gen  # noqa: E402  (the script's own directory is on sys.path)
import spec  # noqa: E402
from probe import scale  # noqa: E402
from tracer import PER_LAYER, layer_metrics  # noqa: E402


def _load_program():
    if not (ROOT / "src" / "macdlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no macdlab source under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    return checks


def machine_info() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _worker(*args: str, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(ROOT), *args],
                            cwd=ROOT, **kwargs)


def time_setups(workload, seed: int, work: Path) -> tuple[list[tuple[float, float]], Path]:
    """(wall seconds less probe slices, mean slice seconds) of each fresh
    set-up interpreter; the input CSV."""
    samples, paths = [], []
    for i in range(spec.SETUP_REPEATS):
        path = work / f"input{i}.csv"
        start = time.perf_counter()
        with _worker("setup", workload.name, str(seed), str(path),
                     stdout=subprocess.PIPE, text=True) as proc:
            report = proc.stdout.read()
            rc = proc.wait()
        wall = time.perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"set-up interpreter exited {rc}")
        probe = json.loads(report)
        samples.append((wall - probe["slices_s"], probe["probe"]))
        paths.append(path)
    for path in paths[1:]:
        if not filecmp.cmp(paths[0], path, shallow=False):
            raise RuntimeError("the input generator is not deterministic")
        path.unlink()
    return samples, paths[0]


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}


def references(checks, workload, instruments) -> dict:
    """The expected outcome of each instrument, from its pin; a missing pin
    stops the run (`--pin` takes new ones)."""
    pinned = load_pins().get(workload.name, {})
    missing = [inst.code for inst in instruments if inst.code not in pinned]
    if missing:
        raise RuntimeError(f"{workload.name}: no pin for {', '.join(missing)} in {PINS.name}")
    if workload.kind == "panel":
        return {inst.code: checks.panel_reference(inst, workload.mode, pinned[inst.code])
                for inst in instruments}
    return {inst.code: checks.ga_reference(inst, workload.mode, pinned[inst.code])
            for inst in instruments}


class Worker:
    """The serving interpreter, driven one request at a time."""

    def __init__(self):
        self.proc = _worker("serve", stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _report(label: str, problems) -> None:
    for problem in problems[:3]:
        print(f"perfbench: check failed for {label}: {problem}", file=sys.stderr)


def measure(checks, workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple[dict, dict]:
    """The result object, and the raw figures printed beside it."""
    setups, data = time_setups(workload, seed, work)
    instruments = workload.instruments(seed)
    refs = references(checks, workload, instruments)
    commands = workload.commands([inst.code for inst in instruments])

    # traced? -> label -> [(wall seconds less probe slices, mean slice seconds)]
    samples = {False: {label: [] for label, _ in commands},
               True: {label: [] for label, _ in commands} if trace else {}}
    rss_mb = {label: [] for label, _ in commands}
    layers = {}   # per-layer metric -> label -> [value of each traced command]
    attempted = failed = 0
    worker = Worker()
    try:
        start = time.perf_counter()
        visit = 0
        while True:
            label, argv = commands[visit % len(commands)]
            # Alternate plain/traced order by round so drift favours neither.
            odd_round = visit // len(commands) % 2 == 1
            for traced in ([odd_round, not odd_round] if trace else [False]):
                out, spans = work / "out", work / "spans.json"
                reply = worker.request({"argv": [*argv, "--data", str(data), "--out", str(out)],
                                        "trace": traced, "spans": str(spans)})
                samples[traced][label].append((reply["s"], reply["probe"]))
                if traced:
                    for name, value in layer_metrics(json.loads(spans.read_text(encoding="utf-8"))).items():
                        if UNITS[name] in TIME_UNITS:
                            value = scale(value, reply["probe"])
                        layers.setdefault(name, {}).setdefault(label, []).append(value)
                    spans.unlink()
                else:
                    rss_mb[label].append(reply["maxrss_kb"] / 1024.0)
                ops, bad = check(checks, workload, refs, label, out, reply["rc"])
                attempted += ops
                failed += bad
                shutil.rmtree(out, ignore_errors=True)
            visit += 1
            if (time.perf_counter() - start >= seconds
                    and all(samples[False].values()) and all(samples[True].values())):
                break
    finally:
        worker.close()

    run_s = _per_command(samples[False])
    raw = {"run_wall_s": _per_command(samples[False], key=lambda sample: sample[0]),
           "setup_wall_s": statistics.median(wall for wall, _ in setups),
           "probe_s": statistics.median(p for _, p in setups + [s for v in samples[False].values() for s in v]),
           "commands": sum(map(len, samples[False].values()))}
    if not trace:
        per_instrument = len(instruments) if workload.kind == "panel" else 1
        metrics = {
            "setup_s": statistics.median(scale(wall, p) for wall, p in setups),
            "run_s": run_s,
            "peak_rss_mb": _per_command(rss_mb, key=float),
            "instruments_per_s": per_instrument / run_s,
        }
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    else:
        units = UNITS
        metrics = {name: _per_command(values, key=float) for name, values in layers.items()}
        metrics["trace.overhead_frac"] = _per_command(samples[True]) / run_s - 1.0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, raw


UNITS = {n: u for n, u, _ in PER_LAYER}
TIME_UNITS = {"s", "us", "ns/day"}


def _per_command(values: dict, key=lambda sample: scale(*sample)) -> float:
    """Mean over the workload's commands of the median of each command's samples.

    By default a sample is a (seconds, mean probe slice seconds) pair,
    taken at the probe's reference speed.
    """
    return statistics.fmean(statistics.median(map(key, v)) for v in values.values())


def check(checks, workload, refs, label: str, out: Path, rc: int) -> tuple[int, int]:
    """(operations attempted, operations failed) of one command."""
    ops = len(refs) if workload.kind == "panel" else 1
    if rc != 0:
        _report(label, [f"exit code {rc}"])
        return ops, ops
    if workload.kind == "panel":
        try:
            problems = checks.check_panel(out, refs)
        except OSError as exc:
            _report(label, [f"unreadable output: {exc!r}"])
            return ops, ops
        for code, found in problems.items():
            _report(code, found)
        # "*" flags the artifact set as a whole; it fails at least one operation.
        return ops, len(problems.keys() - {"*"}) or int(bool(problems))
    try:
        problems = checks.check_ga(out, refs[label])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems = [f"unreadable artifact: {exc!r}"]
    _report(label, problems)
    return 1, int(bool(problems))


def pin(checks) -> None:
    """Pin the outcome for every pool instrument not pinned yet: a GA
    workload's best triple, a panel instrument's checks.panel_outcome."""
    pins = load_pins()
    for workload in spec.WORKLOADS.values():
        table = pins.setdefault(workload.name, {})
        for index in range(workload.pool):
            inst = gen.pool_instrument(index, workload.days, workload.blanks)
            if inst.code in table:
                continue
            if workload.kind == "panel":
                table[inst.code] = checks.panel_outcome(inst, workload.mode)[2]
            else:
                table[inst.code] = list(checks.ga_best(inst, workload.mode, workload.max_gen))
            print(f"pinned {workload.name} {inst.code}: {table[inst.code]}", flush=True)
            PINS.write_text(_format_pins(pins), encoding="utf-8")


def fit_probe(workload, seed: int, seconds: float, work: Path) -> None:
    """Repeat the workload's commands for `seconds` and print, per command,
    the slope of log(command seconds) on log(probe slice seconds): the
    exponent probe.scale should use for this version of the program."""
    instruments = workload.instruments(seed)
    data = work / "input.csv"
    gen.write_csv(instruments, data)
    commands = workload.commands([inst.code for inst in instruments])
    points = {label: [] for label, _ in commands}
    worker = Worker()
    try:
        start, visit = time.perf_counter(), 0
        while time.perf_counter() - start < seconds or visit < 3 * len(commands):
            label, argv = commands[visit % len(commands)]
            reply = worker.request({"argv": [*argv, "--data", str(data), "--out", str(work / "out")],
                                    "trace": False, "spans": ""})
            points[label].append((math.log(reply["probe"]), math.log(reply["s"])))
            shutil.rmtree(work / "out", ignore_errors=True)
            visit += 1
    finally:
        worker.close()
    for label, xy in points.items():
        x, y = zip(*xy)
        print(f"{label}: exponent {statistics.linear_regression(x, y).slope:.2f}, "
              f"correlation {statistics.correlation(x, y):.2f}, {len(xy)} repeats")


def _format_pins(pins: dict) -> str:
    """pins.json with one instrument per line."""
    tables = [f' "{name}": {{\n' + ",\n".join(f'  "{code}": {json.dumps(genes)}'
                                               for code, genes in sorted(table.items())) + "\n }"
              for name, table in sorted(pins.items())]
    return "{\n" + ",\n".join(tables) + "\n}\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--fit-probe", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n",
                                             encoding="utf-8")
        return 0
    checks = _load_program()
    if args.pin:
        pin(checks)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.fit_probe:
            fit_probe(spec.WORKLOADS[args.workload], args.seed, args.seconds, work)
            return 0
        result, raw = measure(checks, spec.WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print("machine " + json.dumps(machine_info(), sort_keys=True))
    print("raw " + json.dumps(raw, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
