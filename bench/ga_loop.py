"""Time the GA's own loop: optimize with an objective that costs nothing.

    python bench/ga_loop.py [--smoke]

Run it from the root of a source checkout: macdlab is imported from
./src, and only numpy and macdlab's public GaConfig and optimize are
used, so it runs on older checkouts too.

The objective is a table lookup: every triple of the default GA bounds
gets a seeded N(0, 1000) value, and fitness_fn is the table's
__getitem__, so what is timed is selection, crossover, mutation, repair
and the fitness cache. Two configs are timed, GaConfig(seed=SEED) (the
default, which runs until it converges: after 8 generations on this
table) and the same with max_generations=CAPPED_GENS, which stops
before that. The two must run different numbers of generations, or
the second would time the first again; equal counts exit with status 1.

Each config is timed twice over:

  cold  the first optimize call in a child forked for it alone from this
        process, which has imported macdlab and built the table and done
        nothing else, as the CLI runs optimize once per process: what the
        call imports or builds on first use is paid here. The table is
        drawn in a forked child too, so that numpy.random is not already
        loaded here;
  warm  REPEATS calls in this process, once every cold child has run.

The best wall time of REPEATS of each is reported. Every cold call must
give the result of the warm ones, and two warm calls of one config must
give identical results (best genes and fitness, generations, converged,
every generation's stats); a mismatch exits with status 1.

--smoke runs one small config (SMOKE_POP individuals, SMOKE_GENS
generations) once cold and once warm, with the same identity checks, to
show that the harness still runs.

Prints one JSON line: the machine, the settings and, per config, the
generations run, whether it converged, the best warm and cold seconds,
the seconds of every call, and whether a cold call left numpy.random
loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from macdlab import GaConfig, optimize  # noqa: E402

BOUNDS = ((5, 20), (20, 50), (5, 25))
SEED, TABLE_SEED, REPEATS = 0, 11, 15
CAPPED_GENS = 4
SMOKE_POP, SMOKE_GENS = 40, 5


def table() -> dict[tuple[int, int, int], float]:
    """A seeded fitness value for every triple of BOUNDS, drawn in a
    forked child."""
    (f0, f1), (s0, s1), (z0, z1) = BOUNDS
    triples = [(f, s, z) for f in range(f0, f1 + 1) for s in range(s0, s1 + 1)
               for z in range(z0, z1 + 1)]
    values = forked(lambda: np.random.default_rng(TABLE_SEED)
                    .normal(0.0, 1000.0, len(triples)).tolist())
    return dict(zip(triples, values))


def forked(work):
    """work() run in a child forked for it; its result, pickled through a
    pipe. A child that fails exits the harness with status 1."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pickle.dump(work(), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        reply = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit("ga_loop: a forked child failed")
    return pickle.loads(reply)


def timed(cfg, fitness) -> tuple[float, tuple]:
    start = time.perf_counter()
    result = optimize(None, None, cfg, fitness_fn=fitness)
    return time.perf_counter() - start, outcome(result)


def cold(cfg, fitness) -> tuple[float, tuple, bool]:
    """One optimize call in a fresh fork: its seconds, its outcome and
    whether numpy.random was loaded after it."""
    return forked(lambda: (*timed(cfg, fitness), "numpy.random" in sys.modules))


def outcome(result) -> tuple:
    return (result.best_genes, result.best_fitness, result.generations, result.converged,
            [(g.generation, g.best_fitness, g.mean_fitness, g.best_genes)
             for g in result.history])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true")
    smoke = parser.parse_args(argv).smoke
    configs = {"default": GaConfig(seed=SEED),
               f"max_gen_{CAPPED_GENS}": GaConfig(seed=SEED, max_generations=CAPPED_GENS)}
    repeats = REPEATS
    if smoke:
        configs = {"smoke": GaConfig(seed=SEED, population_size=SMOKE_POP,
                                     max_generations=SMOKE_GENS)}
        repeats = 1
    fitness = table().__getitem__

    # Every cold child forks before this process first calls optimize.
    colds = {name: [cold(cfg, fitness) for _ in range(repeats)] for name, cfg in configs.items()}
    runs = {}
    for name, cfg in configs.items():
        first = optimize(None, None, cfg, fitness_fn=fitness)
        if outcome(first) != outcome(optimize(None, None, cfg, fitness_fn=fitness)):
            sys.exit(f"ga_loop: {name}: two runs of one config differ")
        if any(got != outcome(first) for _, got, _ in colds[name]):
            sys.exit(f"ga_loop: {name}: a cold run differs from the warm ones")
        seconds = [timed(cfg, fitness)[0] for _ in range(repeats)]
        cold_seconds = [s for s, _, _ in colds[name]]
        runs[name] = {"population_size": cfg.population_size,
                      "max_generations": cfg.max_generations,
                      "generations": first.generations, "converged": first.converged,
                      "best_s": min(seconds), "seconds": seconds,
                      "cold_best_s": min(cold_seconds), "cold_seconds": cold_seconds,
                      "cold_loads_numpy_random": any(loaded for _, _, loaded in colds[name])}
    if len({run["generations"] for run in runs.values()}) < len(runs):
        sys.exit("ga_loop: two configs run the same number of generations")
    print(json.dumps({
        "machine": {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                    "numpy": np.__version__, "machine": platform.machine()},
        "seed": SEED, "table_seed": TABLE_SEED, "repeats": repeats, "configs": runs,
    }))


if __name__ == "__main__":
    main()
