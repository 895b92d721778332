"""Genetic search over integer MACD parameter triples.

Fitness is the net profit of a backtest with those periods. Selection is
softmax-weighted sampling with elitism, crossover is single-point over
the three genes, mutation redraws a gene uniformly within its bounds.
Evolution stops once the best fitness has not improved for a fixed
number of consecutive generations.

Randomness discipline: every stochastic operator draws from its own
substream derived from (seed, generation, operator), and fitness
evaluation consumes no randomness at all, so how the population is
evaluated cannot perturb the search path. Backtest fitness is evaluated
a generation at a time with BatchBacktest, which gives exactly the nets
evaluate_fitness would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backtest import DEFAULT_CAPITAL, BatchBacktest, SeriesCache, StrategyMode, run_backtest
from .errors import ConfigError
from .indicators import MacdParams
from .ingest import PriceSeries

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
            if lo > hi:
                raise ConfigError(f"bound low {lo} exceeds high {hi}")
        if self.bounds[0][1] >= self.bounds[1][1]:
            # repair() pushes the slow gene above the fast one; that needs headroom.
            raise ConfigError("fast-gene upper bound must sit below the slow-gene upper bound")

    @property
    def lows(self) -> np.ndarray:
        return np.array([b[0] for b in self.bounds])

    @property
    def highs(self) -> np.ndarray:
        return np.array([b[1] for b in self.bounds])


@dataclass(frozen=True)
class Individual:
    """An integer gene triple (fast, slow, signal) and its evaluated fitness."""

    genes: tuple[int, int, int]
    fitness: float | None = None


@dataclass
class GaState:
    population: list[Individual]
    fitness: list[float]
    generation: int
    best: Individual
    stale_generations: int


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


def select(state: GaState, rng: np.random.Generator) -> list[Individual]:
    """Sample the next pool softmax-weighted, then append the elites.

    Draws population_size - elite_count individuals with replacement
    from the full population, and concatenates the highest-fitness
    individuals unchanged so the best genes always survive.
    """
    population, fitness = state.population, state.fitness
    if not population:
        raise ValueError("empty population")
    prob = selection_probabilities(fitness)
    n_elite = elite_count(len(population))
    chosen = rng.choice(len(population), size=len(population) - n_elite, replace=True, p=prob)
    elite_idx = np.argsort(fitness, kind="stable")[-n_elite:]
    return [population[i] for i in chosen] + [population[i] for i in elite_idx]


def crossover(population: list[Individual], pc: float, rng: np.random.Generator) -> list[Individual]:
    """Single-point crossover over consecutive pairs (0,1), (2,3), ...

    With probability pc a pair swaps its gene tails at a point drawn
    uniformly from {1, 2}; an odd trailing individual is left alone.
    """
    out = list(population)
    for i in range(0, len(out) - 1, 2):
        if rng.random() < pc:
            point = int(rng.integers(1, 3))
            a, b = out[i].genes, out[i + 1].genes
            out[i] = Individual(a[:point] + b[point:])
            out[i + 1] = Individual(b[:point] + a[point:])
    return out


def mutate(population: list[Individual], pm: float, bounds, rng: np.random.Generator) -> list[Individual]:
    """Redraw each gene uniformly within its bounds with probability pm."""
    if not population:
        return []
    genes = np.array([ind.genes for ind in population], dtype=int)
    lows = np.array([b[0] for b in bounds])
    highs = np.array([b[1] for b in bounds])
    hit = rng.random(genes.shape) < pm
    draws = rng.integers(lows, highs + 1, size=genes.shape)
    return [Individual(tuple(row)) for row in np.where(hit, draws, genes).tolist()]


def repair(individual: Individual, bounds=DEFAULT_BOUNDS) -> Individual:
    """Restore fast < slow after the operators break it.

    Clamps the fast gene to its upper bound and lifts the slow gene just
    above it, within the slow gene's range.
    """
    x, y, z = individual.genes
    if x < y:
        return individual
    x = min(x, bounds[0][1])
    y = min(max(y, x + 1, bounds[1][0]), bounds[1][1])
    return Individual((x, y, z))


def _substream(seed: int, generation: int, operator: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, generation, operator]))


def _evaluate(population, evaluate_many, cache) -> list[float]:
    """Fitness for every individual, gathered in population order; the
    triples not seen before go to `evaluate_many` at once, in first-seen order."""
    pending = list(dict.fromkeys(ind.genes for ind in population if ind.genes not in cache))
    if pending:
        cache.update(zip(pending, evaluate_many(pending)))
    return [cache[ind.genes] for ind in population]


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
    `workers` must be >= 1 and is otherwise unused: evaluation runs in
    this thread. Fully deterministic for a given config seed.
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
            raw = _substream(cfg.seed, 0, _INIT).integers(cfg.lows, cfg.highs + 1,
                                                          size=(cfg.population_size, 3))
            population = [repair(Individual(tuple(int(g) for g in row)), cfg.bounds)
                          for row in raw]
        else:
            population = select(state, _substream(cfg.seed, generation, _SELECT))
            population = crossover(population, cfg.crossover_rate, _substream(cfg.seed, generation, _CROSSOVER))
            population = mutate(population, cfg.mutation_rate, cfg.bounds, _substream(cfg.seed, generation, _MUTATE))
            population = [repair(ind, cfg.bounds) for ind in population]

        fitness = _evaluate(population, evaluate_many, cache)
        best_i = int(np.argmax(fitness))
        if generation == 0 or fitness[best_i] > state.best.fitness:
            best, stale = Individual(population[best_i].genes, fitness[best_i]), 0
        else:
            best, stale = state.best, state.stale_generations + 1
        state = GaState(population, fitness, generation, best, stale)
        history.append(GenerationStats(generation, best.fitness, float(np.mean(fitness)), best.genes))
        if stale >= cfg.convergence_patience:
            break

    return OptimizeResult(
        best_genes=state.best.genes,
        best_fitness=state.best.fitness,
        history=history,
        generations=state.generation,
        converged=state.stale_generations >= cfg.convergence_patience,
    )
