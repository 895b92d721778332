"""Time the GA's own loop: optimize with an objective that costs nothing.

    python bench/ga_loop.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only numpy and macdlab's public GaConfig and optimize are
used, so it runs on older checkouts too.

The objective is a table lookup: every triple of the default GA bounds
gets a seeded N(0, 1000) value, and fitness_fn is the table's
__getitem__, so what is timed is selection, crossover, mutation, repair
and the fitness cache. Two configs are timed, GaConfig(seed=SEED) (the
default, which runs until it converges) and the same with
max_generations=10; the best wall time of REPEATS calls is reported.
Before timing, two runs of each config must give identical results
(best genes and fitness, generations, converged, every generation's
stats); a mismatch exits with status 1.

--smoke runs one small config (SMOKE_POP individuals, SMOKE_GENS
generations) once, with the same identity check, to show that the
harness still runs.

Prints one JSON line: the machine, the settings and, per config, the
generations run, whether it converged, the best seconds and the seconds
of every call.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import GaConfig, optimize  # noqa: E402

BOUNDS = ((5, 20), (20, 50), (5, 25))
SEED, TABLE_SEED, REPEATS = 0, 11, 15
SMOKE_POP, SMOKE_GENS = 40, 5


def table() -> dict[tuple[int, int, int], float]:
    """A seeded fitness value for every triple of BOUNDS."""
    (f0, f1), (s0, s1), (z0, z1) = BOUNDS
    triples = [(f, s, z) for f in range(f0, f1 + 1) for s in range(s0, s1 + 1)
               for z in range(z0, z1 + 1)]
    values = np.random.default_rng(TABLE_SEED).normal(0.0, 1000.0, len(triples))
    return dict(zip(triples, values.tolist()))


def outcome(result) -> tuple:
    return (result.best_genes, result.best_fitness, result.generations, result.converged,
            [(g.generation, g.best_fitness, g.mean_fitness, g.best_genes)
             for g in result.history])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    smoke = parser.parse_args(argv).smoke
    configs = {"default": GaConfig(seed=SEED),
               "max_gen_10": GaConfig(seed=SEED, max_generations=10)}
    repeats = REPEATS
    if smoke:
        configs = {"smoke": GaConfig(seed=SEED, population_size=SMOKE_POP,
                                     max_generations=SMOKE_GENS)}
        repeats = 1
    fitness = table().__getitem__

    runs = {}
    for name, cfg in configs.items():
        first = optimize(None, None, cfg, fitness_fn=fitness)
        if outcome(first) != outcome(optimize(None, None, cfg, fitness_fn=fitness)):
            sys.exit(f"ga_loop: {name}: two runs of one config differ")
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            optimize(None, None, cfg, fitness_fn=fitness)
            seconds.append(time.perf_counter() - start)
        runs[name] = {"population_size": cfg.population_size,
                      "max_generations": cfg.max_generations,
                      "generations": first.generations, "converged": first.converged,
                      "best_s": min(seconds), "seconds": seconds}
    print(json.dumps({
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
        "seed": SEED, "table_seed": TABLE_SEED, "repeats": repeats, "configs": runs,
    }))


if __name__ == "__main__":
    main()
