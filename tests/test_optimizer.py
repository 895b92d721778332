import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macdlab import GaConfig, StrategyMode, optimize
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
from oracles import optimize_naive


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
        dict(bounds=((5.5, 20), (20, 50), (5, 25))),
        dict(bounds=((5, 20.0), (20, 50), (5, 25))),
        dict(bounds=((0, 20), (20, 50), (5, 25))),
        dict(bounds=((5, 20), (20, 50), (-3, 25))),
        dict(bounds=((True, 20), (20, 50), (5, 25))),
        dict(bounds=((5, 20), (20, 50), ("5", 25))),
        dict(bounds=((1, 5), (6, 2**63 - 1), (1, 3))),
        dict(bounds=((1, 5), (6, 2**32), (1, 3))),
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            GaConfig(**kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(population_size=3.5), "population_size must be an integer, got 3.5"),
        (dict(population_size=True), "population_size must be an integer, got True"),
        (dict(max_generations=2.5), "max_generations must be an integer, got 2.5"),
        (dict(convergence_patience=1.5), "convergence_patience must be an integer, got 1.5"),
        (dict(seed=True), "seed must be a non-negative integer, got True"),
        (dict(seed=np.float64(3)), f"seed must be a non-negative integer, got {np.float64(3)!r}"),
    ])
    def test_rejects_non_integers_and_bools(self, kw, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            GaConfig(**kw)

    @pytest.mark.parametrize("kw, message", [
        (dict(population_size=1), "population_size must be >= 2, got 1"),
        (dict(convergence_patience=0), "convergence_patience must be >= 1, got 0"),
        (dict(max_generations=-1), "max_generations must be >= 0, got -1"),
        (dict(seed=-1), "seed must be a non-negative integer, got -1"),
    ])
    def test_out_of_range_integers_keep_their_messages(self, kw, message):
        """The values the CLI can pass (--pop, --patience, --max-gen, --seed)."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            GaConfig(**kw)

    def test_numpy_integer_settings_accepted(self):
        cfg = GaConfig(population_size=np.int64(4), convergence_patience=np.int32(2),
                       max_generations=np.uint16(3), seed=np.int64(5))
        assert optimize(None, None, cfg, fitness_fn=surrogate).history == optimize(
            None, None, GaConfig(population_size=4, convergence_patience=2, max_generations=3,
                                 seed=5), fitness_fn=surrogate).history

    def test_bound_low_above_high_is_named(self):
        with pytest.raises(ConfigError, match="^bound low 50 exceeds high 30$"):
            GaConfig(bounds=((5, 20), (50, 30), (5, 25)))

    def test_bound_of_2_32_or_more_is_named(self):
        with pytest.raises(ConfigError, match=r"below 2\*\*32, got \(6, 4294967296\)"):
            GaConfig(bounds=((1, 5), (6, 2**32), (1, 3)))
        GaConfig(bounds=((1, 5), (6, 2**32 - 1), (1, 3)))

    def test_numpy_integer_bounds_accepted(self):
        bounds = tuple((np.int32(lo), np.int64(hi)) for lo, hi in ((5, 20), (20, 50), (5, 25)))
        result = optimize(None, None, small_cfg(bounds=bounds, max_generations=3),
                          fitness_fn=surrogate)
        assert result.history == optimize(None, None, small_cfg(max_generations=3),
                                          fitness_fn=surrogate).history


def test_unused_ga_classes_are_gone():
    import macdlab
    from macdlab import optimizer

    for name in ("Individual", "GaState"):
        assert not hasattr(macdlab, name) and name not in macdlab.__all__
        assert not hasattr(optimizer, name)


class TestEliteCount:
    def test_default_population_keeps_51(self):
        assert elite_count(510) == 51

    def test_tiny_population_keeps_one(self):
        assert elite_count(5) == 1

    def test_ten(self):
        assert elite_count(10) == 1

    def test_empty_population_rejected(self):
        with pytest.raises(ConfigError, match="^population_size must be >= 1, got 0$"):
            elite_count(0)


class TestSelectionProbabilities:
    def test_empty_fitness_rejected(self):
        with pytest.raises(ValueError, match="^empty fitness list$"):
            selection_probabilities([])

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
    @staticmethod
    def make_genes(n):
        return np.array([(5 + i % 15, 26, 9) for i in range(n)], dtype=np.int64)

    def test_population_size_preserved(self, rng):
        out = select(self.make_genes(50), rng.normal(0, 10, 50), np.random.default_rng(0))
        assert out.shape == (50, 3)

    def test_best_individual_always_survives(self, rng):
        genes = self.make_genes(50)
        fitness = list(rng.normal(0, 10, 50))
        best = int(np.argmax(fitness))
        out = select(genes, fitness, np.random.default_rng(1))
        assert genes[best].tolist() in out.tolist()

    def test_elites_occupy_the_tail(self, rng):
        genes = self.make_genes(50)
        fitness = list(range(50))
        out = select(genes, fitness, np.random.default_rng(2))
        n_elite = elite_count(50)
        want = genes[np.argsort(fitness)[-n_elite:]]
        assert np.array_equal(out[-n_elite:], want)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select(np.empty((0, 3), dtype=np.int64), [], np.random.default_rng(0))


class TestCrossover:
    PAIR = np.array([(1, 2, 3), (4, 5, 6)])

    def test_point_one_swaps_two_genes(self):
        # force the pair to cross at point 1
        out = crossover(self.PAIR, 1.0, _PointRng(point=1))
        assert out.tolist() == [[1, 5, 6], [4, 2, 3]]

    def test_point_two_swaps_last_gene(self):
        out = crossover(self.PAIR, 1.0, _PointRng(point=2))
        assert out.tolist() == [[1, 2, 6], [4, 5, 3]]

    def test_zero_rate_is_identity(self, rng):
        a = rng.integers(5, 15, 20)
        genes = np.stack([a, a + 10, np.full(20, 7)], axis=1)
        assert np.array_equal(crossover(genes, 0.0, np.random.default_rng(3)), genes)

    def test_odd_trailing_individual_untouched(self):
        genes = np.array([(1, 2, 3), (4, 5, 6), (7, 8, 9)])
        out = crossover(genes, 1.0, _PointRng(point=2))
        assert out[2].tolist() == [7, 8, 9]

    def test_input_left_alone(self):
        genes = self.PAIR.copy()
        crossover(genes, 1.0, _PointRng(point=1))
        assert np.array_equal(genes, self.PAIR)


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

    @staticmethod
    def make_genes(rng, n=50):
        x = rng.integers(5, 20, n)
        return np.stack([x, x + 20, np.full(n, 10)], axis=1)

    def test_zero_rate_is_identity(self):
        genes = np.array([(5, 20, 5), (20, 50, 25)])
        assert np.array_equal(mutate(genes, 0.0, self.BOUNDS, np.random.default_rng(0)), genes)

    def test_full_rate_redraws_within_bounds(self, rng):
        genes = np.tile([5, 20, 5], (100, 1))
        out = mutate(genes, 1.0, self.BOUNDS, np.random.default_rng(1))
        for col, (lo, hi) in enumerate(self.BOUNDS):
            assert out[:, col].min() >= lo
            assert out[:, col].max() <= hi
        assert len({tuple(row) for row in out.tolist()}) > 1

    def test_any_rate_stays_in_bounds(self, rng):
        out = mutate(self.make_genes(rng), 0.5, self.BOUNDS, np.random.default_rng(2))
        for row in out.tolist():
            for g, (lo, hi) in zip(row, self.BOUNDS):
                assert lo <= g <= hi

    def test_genes_are_python_ints(self, rng):
        # genes key the fitness cache and land in JSON artifacts: the
        # array stays integer, so its rows come out as tuples of ints
        genes = self.make_genes(rng)
        for pm in (0.0, 0.5, 1.0):
            out = mutate(genes, pm, self.BOUNDS, np.random.default_rng(3))
            assert out.dtype.kind == "i"
            for row in map(tuple, out.tolist()):
                assert all(type(g) is int for g in row)


class TestRepair:
    def test_minimal_nudge(self):
        assert repair(np.array([(20, 20, 9)])).tolist() == [[20, 21, 9]]

    def test_valid_triple_untouched(self):
        assert repair(np.array([(12, 26, 9)])).tolist() == [[12, 26, 9]]

    def test_boundary_triple_untouched(self):
        assert repair(np.array([(20, 50, 25)])).tolist() == [[20, 50, 25]]

    def test_inverted_genes_fixed(self):
        fixed = repair(np.array([(18, 7, 9)]), ((5, 20), (20, 50), (5, 25)))
        (x, y, _), = fixed.tolist()
        assert x < y
        assert 5 <= x <= 20 and 20 <= y <= 50

    def test_rows_repaired_independently(self):
        genes = np.array([(12, 26, 9), (20, 20, 9), (30, 10, 7), (19, 50, 5)])
        assert repair(genes).tolist() == [[12, 26, 9], [20, 21, 9], [20, 21, 7], [19, 50, 5]]


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

    def test_genes_are_python_ints(self):
        # genes key the fitness cache and land in JSON artifacts
        seen = []

        def recorded(genes):
            seen.append(genes)
            return surrogate(genes)

        for pm in (0.0, 0.5, 1.0):
            result = optimize(None, None, small_cfg(mutation_rate=pm, max_generations=5),
                              fitness_fn=recorded)
            for genes in seen + [result.best_genes] + [g.best_genes for g in result.history]:
                assert isinstance(genes, tuple)
                assert all(type(g) is int for g in genes)

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


def tied_fitness(levels):
    """A table objective over the triples with only `levels` distinct
    values (0 means every triple scores the same), so argmax and the
    stable elite order decide between many equal individuals."""
    def fitness(genes):
        x, y, z = genes
        return float((x * 7 + y * 3 + z) % levels) if levels else 1.0
    return fitness


@st.composite
def ga_configs(draw):
    """Small GA configs: population sizes 2, 3 and odd ones, rates at 0,
    1 and in between, and bounds narrow enough that repair fires."""
    rate = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
    lo0 = draw(st.integers(1, 10))
    hi0 = draw(st.integers(lo0, lo0 + 6))
    lo1 = draw(st.integers(1, hi0 + 2))
    hi1 = draw(st.integers(max(lo1, hi0 + 1), hi0 + 8))
    lo2 = draw(st.integers(1, 5))
    hi2 = draw(st.integers(lo2, lo2 + 4))
    return GaConfig(
        population_size=draw(st.sampled_from([2, 3]) | st.integers(2, 41)),
        bounds=((lo0, hi0), (lo1, hi1), (lo2, hi2)),
        crossover_rate=draw(rate),
        mutation_rate=draw(rate),
        convergence_patience=draw(st.integers(1, 4)),
        max_generations=draw(st.integers(0, 8)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestNaiveParity:
    """optimize on its gene array against tests/oracles.py optimize_naive,
    the same GA one individual at a time."""

    @staticmethod
    def check(cfg, fitness_fn):
        calls, naive_calls = [], []

        def recorded(genes):
            calls.append(genes)
            return fitness_fn(genes)

        def naive_recorded(genes):
            naive_calls.append(genes)
            return fitness_fn(genes)

        result = optimize(None, None, cfg, fitness_fn=recorded)
        want = optimize_naive(cfg, naive_recorded)
        assert calls == naive_calls
        assert result.best_genes == want["best_genes"]
        assert result.best_fitness == want["best_fitness"]
        assert result.generations == want["generations"]
        assert result.converged == want["converged"]
        assert [(g.generation, g.best_fitness, g.mean_fitness, g.best_genes)
                for g in result.history] == want["history"]

    @settings(max_examples=150, deadline=None)
    @given(ga_configs(), st.integers(0, 5))
    def test_tied_objective(self, cfg, levels):
        self.check(cfg, tied_fitness(levels))

    @settings(max_examples=40, deadline=None)
    @given(ga_configs())
    def test_distinct_objective(self, cfg):
        self.check(cfg, surrogate)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_config(self, seed):
        self.check(GaConfig(seed=seed, max_generations=12), surrogate)

    @pytest.mark.parametrize("pop, seed", [(2, 0), (31, 5), (60, 1)])
    def test_wide_and_zero_width_bounds(self, pop, seed):
        """Ranges near 2**31, where about half of all mutation and
        initial draws are redrawn, beside a zero-width one that draws
        nothing, with a fitness_fn over the whole range."""
        cfg = GaConfig(population_size=pop, bounds=((1, 2**31 + 1), (2, 2**31 + 2), (7, 7)),
                       mutation_rate=0.5, max_generations=6, seed=seed)
        self.check(cfg, lambda genes: float((genes[0] * 31 + genes[1]) % 1009))


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
