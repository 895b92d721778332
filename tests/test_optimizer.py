import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macdlab import GaConfig, GaState, Individual, StrategyMode, optimize
from macdlab.errors import ConfigError, DataError
from macdlab.optimizer import (
    crossover,
    elite_count,
    evaluate_fitness,
    mutate,
    repair,
    select,
    selection_probabilities,
)

from conftest import random_walk_closes, series_from_closes


def surrogate(genes):
    x, y, z = genes
    return -((x - 9) ** 2) - ((y - 22) ** 2) - ((z - 25) ** 2)


def small_cfg(**overrides):
    defaults = dict(population_size=40, max_generations=30, seed=0)
    defaults.update(overrides)
    return GaConfig(**defaults)


class TestGaConfig:
    def test_defaults(self):
        cfg = GaConfig()
        assert cfg.population_size == 510
        assert cfg.bounds == ((5, 20), (20, 50), (5, 25))
        assert cfg.crossover_rate == 0.8
        assert cfg.mutation_rate == 0.1
        assert cfg.convergence_patience == 8
        assert cfg.max_generations == 200

    @pytest.mark.parametrize("kw", [
        dict(population_size=1),
        dict(crossover_rate=1.5),
        dict(mutation_rate=-0.1),
        dict(convergence_patience=0),
        dict(seed=-1),
        dict(bounds=((5, 20), (20, 50))),
        dict(bounds=((5, 60), (20, 50), (5, 25))),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            GaConfig(**kw)


class TestEliteCount:
    def test_default_population_keeps_51(self):
        assert elite_count(510) == 51

    def test_tiny_population_keeps_one(self):
        assert elite_count(5) == 1

    def test_ten(self):
        assert elite_count(10) == 1


class TestSelectionProbabilities:
    def test_uniform_for_equal_fitness(self):
        prob = selection_probabilities([3.0] * 8)
        assert np.allclose(prob, 1.0 / 8.0)

    def test_huge_spread_is_one_hot(self):
        prob = selection_probabilities([1_000_000.0, 0.0])
        assert prob[0] == pytest.approx(1.0)
        assert prob[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_positive(self, rng):
        fitness = rng.normal(0, 100, 200)
        prob = selection_probabilities(fitness)
        assert abs(prob.sum() - 1.0) < 1e-9
        assert (prob > 0).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=30),
           st.floats(-1e4, 1e4))
    def test_shift_invariance(self, fitness, shift):
        base = selection_probabilities(fitness)
        shifted = selection_probabilities([f + shift for f in fitness])
        assert np.allclose(base, shifted, rtol=1e-9, atol=1e-12)


class TestSelect:
    def make_state(self, fitness):
        population = [Individual((5 + i % 15, 26, 9)) for i in range(len(fitness))]
        return GaState(population=population, fitness=list(fitness),
                       generation=0, best=population[0], stale_generations=0)

    def test_population_size_preserved(self, rng):
        state = self.make_state(rng.normal(0, 10, 50))
        out = select(state, np.random.default_rng(0))
        assert len(out) == 50

    def test_best_individual_always_survives(self, rng):
        fitness = list(rng.normal(0, 10, 50))
        best = int(np.argmax(fitness))
        state = self.make_state(fitness)
        out = select(state, np.random.default_rng(1))
        assert state.population[best] in out

    def test_elites_occupy_the_tail(self, rng):
        fitness = list(range(50))
        state = self.make_state(fitness)
        out = select(state, np.random.default_rng(2))
        n_elite = elite_count(50)
        tail = out[-n_elite:]
        want = [state.population[i] for i in np.argsort(fitness)[-n_elite:]]
        assert tail == want

    def test_empty_population_rejected(self):
        state = GaState([], [], 0, Individual((5, 20, 5)), 0)
        with pytest.raises(ValueError):
            select(state, np.random.default_rng(0))


class TestCrossover:
    def test_point_one_swaps_two_genes(self):
        pop = [Individual((1, 2, 3)), Individual((4, 5, 6))]
        rng = np.random.default_rng(0)
        # force the pair to cross at point 1
        out = crossover(pop, 1.0, _PointRng(point=1))
        assert out[0].genes == (1, 5, 6)
        assert out[1].genes == (4, 2, 3)

    def test_point_two_swaps_last_gene(self):
        pop = [Individual((1, 2, 3)), Individual((4, 5, 6))]
        out = crossover(pop, 1.0, _PointRng(point=2))
        assert out[0].genes == (1, 2, 6)
        assert out[1].genes == (4, 5, 3)

    def test_zero_rate_is_identity(self, rng):
        pop = [Individual((int(a), int(a) + 10, 7)) for a in rng.integers(5, 15, 20)]
        assert crossover(pop, 0.0, np.random.default_rng(3)) == pop

    def test_odd_trailing_individual_untouched(self):
        pop = [Individual((1, 2, 3)), Individual((4, 5, 6)), Individual((7, 8, 9))]
        out = crossover(pop, 1.0, _PointRng(point=2))
        assert out[2].genes == (7, 8, 9)


class _PointRng:
    """Minimal stand-in: always crosses, always at a fixed point."""

    def __init__(self, point):
        self.point = point

    def random(self):
        return 0.0

    def integers(self, low, high):
        assert (low, high) == (1, 3)
        return self.point


class TestMutate:
    BOUNDS = ((5, 20), (20, 50), (5, 25))

    def test_zero_rate_is_identity(self):
        pop = [Individual((5, 20, 5)), Individual((20, 50, 25))]
        assert mutate(pop, 0.0, self.BOUNDS, np.random.default_rng(0)) == pop

    def test_full_rate_redraws_within_bounds(self, rng):
        pop = [Individual((5, 20, 5))] * 100
        out = mutate(pop, 1.0, self.BOUNDS, np.random.default_rng(1))
        genes = np.array([ind.genes for ind in out])
        for col, (lo, hi) in enumerate(self.BOUNDS):
            assert genes[:, col].min() >= lo
            assert genes[:, col].max() <= hi
        assert len({ind.genes for ind in out}) > 1

    def test_any_rate_stays_in_bounds(self, rng):
        pop = [Individual((int(x), int(x) + 20, 10)) for x in rng.integers(5, 20, 50)]
        out = mutate(pop, 0.5, self.BOUNDS, np.random.default_rng(2))
        for ind in out:
            for g, (lo, hi) in zip(ind.genes, self.BOUNDS):
                assert lo <= g <= hi

    def test_genes_are_python_ints(self, rng):
        # genes key the fitness cache and land in JSON artifacts
        pop = [Individual((int(x), int(x) + 20, 10)) for x in rng.integers(5, 20, 50)]
        for pm in (0.0, 0.5, 1.0):
            for ind in mutate(pop, pm, self.BOUNDS, np.random.default_rng(3)):
                assert isinstance(ind.genes, tuple)
                assert all(type(g) is int for g in ind.genes)


class TestRepair:
    def test_minimal_nudge(self):
        assert repair(Individual((20, 20, 9))).genes == (20, 21, 9)

    def test_valid_triple_untouched(self):
        ind = Individual((12, 26, 9))
        assert repair(ind) is ind

    def test_boundary_triple_untouched(self):
        ind = Individual((20, 50, 25))
        assert repair(ind) is ind

    def test_inverted_genes_fixed(self):
        fixed = repair(Individual((18, 7, 9)), ((5, 20), (20, 50), (5, 25)))
        x, y, _ = fixed.genes
        assert x < y
        assert 5 <= x <= 20 and 20 <= y <= 50


class TestEvaluateFitness:
    def test_no_crossings_means_zero(self, make_series):
        fitness = evaluate_fitness((12, 26, 9), make_series([100.0] * 60), StrategyMode.RAW)
        assert fitness == 0.0

    def test_rising_series_never_negative(self, rng):
        closes = 100.0 * np.cumprod(1.0 + rng.uniform(0.0, 0.01, 150))
        series = series_from_closes(closes)
        for genes in [(5, 20, 5), (12, 26, 9), (20, 50, 25)]:
            assert evaluate_fitness(genes, series, StrategyMode.RAW) >= 0.0

    def test_deterministic(self, rng):
        series = series_from_closes(random_walk_closes(rng, 200))
        a = evaluate_fitness((10, 30, 8), series, StrategyMode.RAW)
        b = evaluate_fitness((10, 30, 8), series, StrategyMode.RAW)
        assert a == b


class TestOptimize:
    def test_surrogate_converges_to_known_optimum(self):
        result = optimize(None, None, GaConfig(seed=42, max_generations=60), fitness_fn=surrogate)
        assert result.best_genes == (9, 22, 25)
        assert result.best_fitness == 0.0

    def test_zero_generations_returns_initial_best(self):
        cfg = small_cfg(max_generations=0)
        result = optimize(None, None, cfg, fitness_fn=surrogate)
        assert result.generations == 0
        assert len(result.history) == 1
        assert not result.converged

    def test_same_seed_same_history(self):
        runs = [optimize(None, None, small_cfg(seed=5), fitness_fn=surrogate) for _ in range(2)]
        a, b = (r.history for r in runs)
        assert [(g.generation, g.best_fitness, g.mean_fitness, g.best_genes) for g in a] == \
               [(g.generation, g.best_fitness, g.mean_fitness, g.best_genes) for g in b]

    def test_parallel_matches_sequential(self):
        seq = optimize(None, None, small_cfg(seed=9), fitness_fn=surrogate, workers=1)
        par = optimize(None, None, small_cfg(seed=9), fitness_fn=surrogate, workers=4)
        assert seq.best_genes == par.best_genes
        assert [(g.best_fitness, g.mean_fitness) for g in seq.history] == \
               [(g.best_fitness, g.mean_fitness) for g in par.history]

    def test_best_fitness_monotone(self):
        result = optimize(None, None, small_cfg(seed=17), fitness_fn=surrogate)
        best = [g.best_fitness for g in result.history]
        assert all(b >= a for a, b in zip(best, best[1:]))

    def test_every_evaluated_individual_is_feasible(self):
        cfg = small_cfg(seed=3, max_generations=15)

        def checked(genes):
            x, y, z = genes
            assert 5 <= x <= 20 and 20 <= y <= 50 and 5 <= z <= 25
            assert x < y
            return surrogate(genes)

        optimize(None, None, cfg, fitness_fn=checked)

    def test_convergence_reported(self):
        result = optimize(None, None, GaConfig(seed=1, max_generations=120,
                                               population_size=60), fitness_fn=surrogate)
        if result.converged:
            assert result.generations < 120

    def test_backtest_fitness_path(self, rng):
        series = series_from_closes(random_walk_closes(rng, 150))
        cfg = small_cfg(population_size=12, max_generations=2, seed=0)
        result = optimize(series, StrategyMode.RAW, cfg)
        assert len(result.history) >= 1
        assert isinstance(result.best_fitness, float)

    def test_needs_series_or_fitness(self):
        with pytest.raises(ValueError):
            optimize(None, StrategyMode.RAW, small_cfg())

    def test_bad_workers_rejected(self):
        with pytest.raises(ConfigError):
            optimize(None, None, small_cfg(), fitness_fn=surrogate, workers=0)


class TestBatchedGa:
    """optimize's batched backtest fitness against a scalar fitness_fn."""

    CFG = GaConfig(population_size=120, max_generations=6, seed=4)

    @staticmethod
    def scalar(series, mode, capital=500_000.0):
        return lambda genes: evaluate_fitness(genes, series, mode, capital)

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_identical_search(self, mode):
        series = series_from_closes(random_walk_closes(np.random.default_rng(8), 400, vol=0.02))
        batched = optimize(series, mode, self.CFG)
        scalar = optimize(None, mode, self.CFG, fitness_fn=self.scalar(series, mode))
        assert batched.history == scalar.history
        assert batched.best_genes == scalar.best_genes
        assert batched.best_fitness == scalar.best_fitness

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_short_series_error_matches(self, mode):
        series = series_from_closes(random_walk_closes(np.random.default_rng(9), 35))
        with pytest.raises(DataError) as batched:
            optimize(series, mode, self.CFG)
        with pytest.raises(DataError) as scalar:
            optimize(None, mode, self.CFG, fitness_fn=self.scalar(series, mode))
        assert str(batched.value) == str(scalar.value)
        assert str(batched.value).startswith("series too short: 35 rows < slow period ")

    def test_bad_capital_error_matches(self):
        series = series_from_closes(random_walk_closes(np.random.default_rng(10), 200))
        mode = StrategyMode.RAW
        with pytest.raises(ValueError) as batched:
            optimize(series, mode, self.CFG, initial_capital=-1.0)
        with pytest.raises(ValueError) as scalar:
            optimize(None, mode, self.CFG, fitness_fn=self.scalar(series, mode, -1.0))
        assert str(batched.value) == str(scalar.value)
