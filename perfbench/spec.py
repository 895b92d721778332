"""What the benchmark runs and reports: workloads and metrics.

This is the single source of BENCHMARK.json (`run.py --write-spec`).
"""

from __future__ import annotations

from dataclasses import dataclass

import gen
from tracer import PER_LAYER

RUN_SECONDS = 25
# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
# Otherwise default GaConfig, the GA stops after at most this many
# generations. Most pool instruments converge (8 stale generations) by
# then and are unaffected; the few that run on to 15-20 generations
# would make one run's cost depend more on which instruments it drew
# than on the program.
GA_MAX_GEN = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "ga": one optimize per instrument; "panel": one backtest of the file
    mode: str
    count: int           # instruments in the generated CSV, drawn by seed ...
    pool: int            # ... from a fixed pool of this many (gen.pool_instrument)
    days: int
    blanks: int = 0      # blank closes per instrument, dropped by clean()
    max_gen: int = 0     # GA generation cap (--max-gen)

    def instruments(self, seed: int):
        return [gen.pool_instrument(i, self.days, self.blanks)
                for i in gen.pick(seed, self.pool, self.count)]

    def commands(self, codes: list[str]) -> list[tuple[str, list[str]]]:
        """(label, argv without --data/--out) of one round of the workload."""
        if self.kind == "panel":
            return [("panel", ["backtest", "--mode", self.mode])]
        return [(code, ["optimize", "--mode", self.mode, "--code", code, "--workers", "1",
                        "--max-gen", str(self.max_gen)])
                for code in codes]


WORKLOADS = {w.name: w for w in (
    Workload(
        "ga_raw",
        "optimize --mode raw, default GA capped at 10 generations: backtest loop and GA operators only; "
        "wavelet and analysis never run, the no-change control for denoiser or divergence work",
        kind="ga", mode="raw", count=4, pool=64, days=2500, max_gen=GA_MAX_GEN),
    Workload(
        "ga_divergence",
        "optimize --mode divergence, default GA capped at 10 generations: the heaviest user path; analysis, wavelet "
        "and the backtest loop run once per candidate triple",
        kind="ga", mode="divergence", count=4, pool=64, days=1000, max_gen=GA_MAX_GEN),
    Workload(
        "panel_backtest",
        "backtest --mode divergence over 100 instruments: ingest, artifact writing and one "
        "backtest per series, the opposite use of backtest to the GA's",
        kind="panel", mode="divergence", count=100, pool=400, days=1500, blanks=3),
)}

# Time metrics get the widest bound allowed: even scaled by the probe,
# this shared host's drift leaves a ten-seed spread of several percent
# (perfbench/README.md, "Steadiness").
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "instruments_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": list(END_TO_END),
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
