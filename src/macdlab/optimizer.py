"""Genetic search over integer MACD parameter triples.

Fitness is the net profit of a backtest with those periods. Selection is
softmax-weighted sampling with elitism, crossover is single-point over
the three genes, mutation redraws a gene uniformly within its bounds.
Evolution stops once the best fitness has not improved for a fixed
number of consecutive generations. The population is one (n, 3) integer
gene array for the whole run, and each operator is one function of it;
tests/oracles.py `optimize_naive` is the same search one individual at a
time.

Randomness discipline: every stochastic operator draws from its own
substream derived from (seed, generation, operator), and fitness
evaluation consumes no randomness at all, so how the population is
evaluated cannot perturb the search path. A substream is a
`streams.Stream`: the numbers of numpy's
`default_rng(SeedSequence([seed, generation, operator]))`, bit for bit,
drawn without importing numpy.random. The operators make only
Generator calls, so a numpy Generator serves them too, as it does
tests/oracles.py `optimize_naive`. Backtest fitness is evaluated
a generation at a time with BatchBacktest, which gives exactly the nets
evaluate_fitness would, in one process or, for a large generation,
several: the triples of one generation are independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backtest import DEFAULT_CAPITAL, BatchBacktest, SeriesCache, StrategyMode, run_backtest
from .errors import ConfigError
from .indicators import MacdParams
from .ingest import PriceSeries
from .streams import Stream

DEFAULT_BOUNDS = ((5, 20), (20, 50), (5, 25))

# Operator tags used to derive per-generation random substreams.
_INIT, _SELECT, _CROSSOVER, _MUTATE = 0, 1, 2, 3


@dataclass(frozen=True)
class GaConfig:
    population_size: int = 510
    bounds: tuple = DEFAULT_BOUNDS
    crossover_rate: float = 0.8
    mutation_rate: float = 0.1
    convergence_patience: int = 8
    max_generations: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError(f"crossover_rate must be in [0, 1], got {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must be in [0, 1], got {self.mutation_rate}")
        if self.convergence_patience < 1:
            raise ConfigError(f"convergence_patience must be >= 1, got {self.convergence_patience}")
        if self.max_generations < 0:
            raise ConfigError(f"max_generations must be >= 0, got {self.max_generations}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if len(self.bounds) != 3 or any(len(b) != 2 for b in self.bounds):
            raise ConfigError(f"bounds must be three (low, high) pairs, got {self.bounds!r}")
        for lo, hi in self.bounds:
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1
                       for v in (lo, hi)):
                # the genes are periods, and the GA keeps them in an integer array
                raise ConfigError(f"bounds must be integers >= 1, got ({lo!r}, {hi!r})")
            if hi >= 2**32:
                # a wider range would draw 64-bit words, which the GA's
                # streams do not reproduce; no period is that long anyway
                raise ConfigError(f"bounds must be below 2**32, got ({lo!r}, {hi!r})")
            if lo > hi:
                raise ConfigError(f"bound low {lo} exceeds high {hi}")
        if self.bounds[0][1] >= self.bounds[1][1]:
            # repair() pushes the slow gene above the fast one; that needs headroom.
            raise ConfigError("fast-gene upper bound must sit below the slow-gene upper bound")

    @property
    def lows(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds], dtype=np.int64)

    @property
    def highs(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds], dtype=np.int64)


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_genes: tuple[int, int, int]


@dataclass
class OptimizeResult:
    best_genes: tuple[int, int, int]
    best_fitness: float
    history: list[GenerationStats]
    generations: int
    converged: bool


def evaluate_fitness(
    genes: tuple[int, int, int],
    prices: PriceSeries,
    mode: StrategyMode,
    initial_capital: float = DEFAULT_CAPITAL,
) -> float:
    """Net backtest profit of one parameter triple. Pure and deterministic."""
    log = run_backtest(prices, MacdParams(*(int(g) for g in genes)), mode, initial_capital)
    return log.net


def elite_count(population_size: int) -> int:
    """Elites carried over unchanged: a tenth of the population, at least one."""
    if population_size < 1:
        raise ConfigError(f"population_size must be >= 1, got {population_size}")
    return max(1, population_size // 10)


def selection_probabilities(fitness) -> np.ndarray:
    """Softmax of the fitness list, shifted by its max so exp cannot overflow."""
    f = np.asarray(fitness, dtype=float)
    if f.size == 0:
        raise ValueError("empty fitness list")
    exp_v = np.exp(f - f.max())
    return exp_v / exp_v.sum()


def select(genes: np.ndarray, fitness, rng: Stream | np.random.Generator) -> np.ndarray:
    """Sample the next pool softmax-weighted, then append the elites.

    Draws len(genes) - elite_count rows with replacement from the whole
    (n, 3) gene array, and concatenates the highest-fitness rows
    unchanged so the best genes always survive.
    """
    if len(genes) == 0:
        raise ValueError("empty population")
    prob = selection_probabilities(fitness)
    n_elite = elite_count(len(genes))
    chosen = rng.choice(len(genes), size=len(genes) - n_elite, replace=True, p=prob)
    elite_idx = np.argsort(fitness, kind="stable")[-n_elite:]
    return genes[np.concatenate([chosen, elite_idx])]


def crossover(genes: np.ndarray, pc: float, rng: Stream | np.random.Generator) -> np.ndarray:
    """Single-point crossover over consecutive rows (0,1), (2,3), ...

    With probability pc a pair swaps its gene tails at a point drawn
    uniformly from {1, 2}; an odd trailing row is left alone. The draws
    are scalar and in pair order (a point only for a pair that crosses),
    then all crossing pairs swap at once.
    """
    n_pairs = len(genes) // 2
    random, integers = rng.random, rng.integers
    # 0 marks a pair that does not cross
    points = [integers(1, 3) if random() < pc else 0 for _ in range(n_pairs)]
    points = np.array(points, dtype=np.int64).reshape(n_pairs, 1)
    swap = (points > 0) & (np.arange(3) >= points)
    out = genes.copy()
    first, second = genes[0:2 * n_pairs:2], genes[1:2 * n_pairs:2]
    out[0:2 * n_pairs:2] = np.where(swap, second, first)
    out[1:2 * n_pairs:2] = np.where(swap, first, second)
    return out


def mutate(genes: np.ndarray, pm: float, bounds, rng: Stream | np.random.Generator) -> np.ndarray:
    """Redraw each gene uniformly within its bounds with probability pm."""
    lows, highs = np.array(bounds, dtype=np.int64).T
    hit = rng.random(genes.shape) < pm
    draws = rng.integers(lows, highs + 1, size=genes.shape)
    return np.where(hit, draws, genes)


def repair(genes: np.ndarray, bounds=DEFAULT_BOUNDS) -> np.ndarray:
    """Restore fast < slow in every row the operators broke it in.

    Clamps the fast gene to its upper bound and lifts the slow gene just
    above it, within the slow gene's range; valid rows are unchanged.
    """
    fast, slow = genes[:, 0], genes[:, 1]
    broken = fast >= slow
    fixed_fast = np.minimum(fast, bounds[0][1])
    fixed_slow = np.clip(np.maximum(slow, fixed_fast + 1), bounds[1][0], bounds[1][1])
    out = genes.copy()
    out[:, 0] = np.where(broken, fixed_fast, fast)
    out[:, 1] = np.where(broken, fixed_slow, slow)
    return out


def _substream(seed: int, generation: int, operator: int) -> Stream:
    return Stream([seed, generation, operator])


def optimize(
    prices: PriceSeries | SeriesCache | None,
    mode: StrategyMode,
    cfg: GaConfig,
    *,
    fitness_fn=None,
    workers: int = 1,
    initial_capital: float = DEFAULT_CAPITAL,
) -> OptimizeResult:
    """Search the bounded integer triple space for maximal fitness.

    By default fitness is the net backtest profit on `prices` under
    `mode`, each generation's new triples evaluated together in batches
    (a SeriesCache as `prices` keeps its work for later runs); pass
    `fitness_fn(genes) -> float` to substitute any other pure objective
    (prices may then be None), called once per new triple.
    `workers` must be >= 1 and is otherwise unused: BatchBacktest.nets
    spreads a large batch over the CPUs on its own, with the nets of one
    process. Fully deterministic for a given config seed.
    """
    if fitness_fn is None and prices is None:
        raise ValueError("optimize needs a price series when no fitness_fn is given")
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    if fitness_fn is None:
        evaluate_many = BatchBacktest(prices, mode, initial_capital).nets
    else:
        def evaluate_many(pending):
            return [fitness_fn(genes) for genes in pending]

    cache: dict[tuple[int, int, int], float] = {}
    history: list[GenerationStats] = []
    for generation in range(cfg.max_generations + 1):
        if generation == 0:
            genes = _substream(cfg.seed, 0, _INIT).integers(cfg.lows, cfg.highs + 1,
                                                            size=(cfg.population_size, 3))
        else:
            genes = select(genes, fitness, _substream(cfg.seed, generation, _SELECT))
            genes = crossover(genes, cfg.crossover_rate, _substream(cfg.seed, generation, _CROSSOVER))
            genes = mutate(genes, cfg.mutation_rate, cfg.bounds, _substream(cfg.seed, generation, _MUTATE))
        genes = repair(genes, cfg.bounds)

        # The triples not seen before go to evaluate_many at once, in first-seen order.
        keys = list(map(tuple, genes.tolist()))
        pending = [k for k in dict.fromkeys(keys) if k not in cache]
        if pending:
            cache.update(zip(pending, evaluate_many(pending)))
        # best_fitness keeps the objective's own number; the array serves the numpy calls
        values = list(map(cache.__getitem__, keys))
        fitness = np.asarray(values)
        best_i = int(fitness.argmax())
        if generation == 0 or values[best_i] > best_fitness:
            best_genes, best_fitness, stale = keys[best_i], values[best_i], 0
        else:
            stale += 1
        history.append(GenerationStats(generation, best_fitness, float(fitness.mean()), best_genes))
        if stale >= cfg.convergence_patience:
            break

    return OptimizeResult(
        best_genes=best_genes,
        best_fitness=best_fitness,
        history=history,
        generations=generation,
        converged=stale >= cfg.convergence_patience,
    )
