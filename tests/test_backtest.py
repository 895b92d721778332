import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from macdlab import (
    MacdParams,
    StrategyMode,
    compute_indicators,
    cross_signals,
    ema,
    evaluate_fitness,
    recompute_dea_from_denoised,
    run_backtest,
)
from macdlab.analysis import PROMINENCE_WINDOW
from macdlab import backtest
from macdlab.backtest import BatchBacktest, SeriesCache, _round_trips, _tallies, _trade_log, _walk
from macdlab.errors import ConfigError, DataError
from macdlab.indicators import SIGNAL_BUY

from conftest import no_child_left, random_walk_closes, series_from_closes
from oracles import backtest_naive, trade_inputs_naive


def crossing_series(n=120):
    """Closes engineered to produce one clean buy at ~100 then a sell at ~110."""
    closes = np.concatenate([
        np.linspace(120.0, 100.0, 40),   # downtrend: dif below dea
        np.full(20, 100.0),
        np.linspace(100.0, 110.0, 40),   # rally: upward cross, buy
        np.linspace(110.0, 95.0, 20),    # drop: downward cross, sell
    ])
    return series_from_closes(closes)


class TestRunBacktestBasics:
    def test_no_signals_means_constant_equity(self, make_series):
        log = run_backtest(make_series([100.0] * 60), MacdParams(), StrategyMode.RAW)
        assert log.trades == []
        assert np.array_equal(log.equity, np.full(60, 500_000.0))
        assert log.n_total == log.n_sells == log.n_wins == 0
        assert log.net == 0.0

    def test_all_in_round_trip_arithmetic(self, make_series):
        # flat shelves make the crossings land exactly on 100 and 110:
        # one buy at close 100 then one sell at close 110
        closes = np.concatenate([
            np.linspace(120.0, 100.0, 20),
            np.full(15, 100.0),
            np.full(15, 110.0),
        ])
        log = run_backtest(make_series(closes), MacdParams(2, 5, 3), StrategyMode.RAW)
        assert len(log.trades) == 1
        trade = log.trades[0]
        assert trade.buy_price == 100.0
        assert trade.sell_price == 110.0
        assert trade.quantity == 5000.0
        assert trade.pnl == 50_000.0
        assert log.equity[-1] == 550_000.0

    def test_forced_final_liquidation(self, make_series):
        # rises and never crosses back down: position closed at the last close
        closes = np.concatenate([np.full(30, 100.0), np.linspace(100.0, 110.0, 30)])
        log = run_backtest(make_series(closes), MacdParams(2, 5, 3), StrategyMode.RAW)
        assert log.trades
        last = log.trades[-1]
        assert last.trigger == "final_liquidation"
        assert last.sell_index == len(closes) - 1
        assert log.equity[-1] > 500_000.0

    def test_too_short_series_rejected(self, make_series):
        with pytest.raises(DataError, match="too short"):
            run_backtest(make_series(np.full(5, 100.0)), MacdParams(), StrategyMode.RAW)

    def test_bad_capital_rejected(self, make_series):
        with pytest.raises(ValueError):
            run_backtest(make_series(np.full(60, 100.0)), MacdParams(), StrategyMode.RAW, 0.0)

    @pytest.mark.parametrize("capital", [0.0, -5.0, float("nan"), float("inf")])
    def test_capital_must_be_finite_and_positive(self, make_series, capital):
        series = make_series(np.full(60, 100.0))
        for run in (lambda: run_backtest(series, MacdParams(), StrategyMode.RAW, capital),
                    lambda: BatchBacktest(series, StrategyMode.RAW, capital).nets([(12, 26, 9)])):
            with pytest.raises(ValueError, match="initial capital must be positive and finite"):
                run()


class TestConservation:
    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_pnl_telescopes_to_final_equity(self, rng, mode):
        closes = random_walk_closes(rng, 300, vol=0.02)
        log = run_backtest(series_from_closes(closes), MacdParams(), mode)
        assert log.equity[-1] == 500_000.0 + sum(t.pnl for t in log.trades)

    def test_trades_alternate_and_never_overlap(self, rng):
        for _ in range(10):
            closes = random_walk_closes(rng, 400, vol=0.025)
            log = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.RAW)
            for trade in log.trades:
                assert trade.buy_index < trade.sell_index
            for a, b in zip(log.trades, log.trades[1:]):
                assert a.sell_index < b.buy_index

    def test_equity_never_negative(self, rng):
        for _ in range(10):
            closes = random_walk_closes(rng, 300, drift=-0.003, vol=0.03)
            log = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.RAW)
            assert (log.equity >= 0).all()

    def test_gross_totals_are_consistent(self, rng):
        closes = random_walk_closes(rng, 500, vol=0.02)
        log = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.RAW)
        pnls = [t.pnl for t in log.trades]
        assert log.gross_profit == sum(p for p in pnls if p > 0)
        assert log.gross_loss == -sum(p for p in pnls if p < 0)
        assert log.net == log.gross_profit - log.gross_loss
        assert log.n_wins == sum(1 for p in pnls if p > 0)
        assert log.n_total == 2 * log.n_sells == 2 * len(pnls)

    def test_deterministic_replay(self, rng):
        closes = random_walk_closes(rng, 250, vol=0.02)
        a = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.DENOISED)
        b = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.DENOISED)
        assert np.array_equal(a.equity, b.equity)
        assert a.trades == b.trades

    def test_rising_market_never_loses(self, rng):
        for _ in range(5):
            closes = 100.0 * np.cumprod(1.0 + rng.uniform(0.0, 0.01, 200))
            log = run_backtest(series_from_closes(closes), MacdParams(), StrategyMode.RAW)
            assert log.equity[-1] >= 500_000.0


class TestRecomputeDea:
    def test_constant_dif_never_crosses(self):
        ind = recompute_dea_from_denoised(np.full(50, 2.0), 9)
        assert np.array_equal(ind.dea, np.full(50, 2.0))
        assert np.array_equal(ind.macd, np.zeros(50))
        assert not cross_signals(ind).signals.any()

    def test_ramp_then_flat_crosses_once(self):
        dif = np.concatenate([np.full(20, -1.0), np.linspace(-1.0, 1.0, 20), np.full(20, 1.0)])
        ind = recompute_dea_from_denoised(dif, 9)
        signals = cross_signals(ind).signals
        assert list(signals).count(SIGNAL_BUY) == 1
        assert (signals >= 0).all()  # no sell ever

    def test_signal_period_one_copies_dif(self, rng):
        dif = rng.normal(size=80)
        ind = recompute_dea_from_denoised(dif, 1)
        assert np.array_equal(ind.dea, dif)
        assert np.array_equal(ind.macd, np.zeros(80))

    def test_matches_ema_definition(self, rng):
        dif = rng.normal(size=60)
        ind = recompute_dea_from_denoised(dif, 7)
        assert np.array_equal(ind.dea, ema(dif, 7))


class TestDivergenceMode:
    # steady rally with a sharp one-day dip and a marginal higher high on
    # fading momentum: a top divergence at day 52, confirmable at 53,
    # while the smoothed trend is unambiguously long
    RALLY_WITH_TOP = np.concatenate([
        np.full(20, 95.0),
        np.linspace(95.0, 120.0, 30),
        [121.0, 117.0, 121.3, 120.8],
        np.linspace(121.0, 126.0, 20),
    ])

    def into_modes(self, series):
        params = MacdParams()
        return (run_backtest(series, params, StrategyMode.DENOISED),
                run_backtest(series, params, StrategyMode.DENOISED_WITH_DIVERGENCE))

    def test_divergence_event_forces_exit(self):
        series = series_from_closes(self.RALLY_WITH_TOP)
        from macdlab import detect_divergences

        events = detect_divergences(series, compute_indicators(series, MacdParams()))
        assert [(e.kind, e.current_extreme_index) for e in events] == [("top", 52)]

        plain, with_div = self.into_modes(series)
        assert [t.trigger for t in with_div.trades] == ["divergence"]
        assert with_div.trades[0].sell_index == 53  # close of the confirm day
        assert all(t.trigger != "divergence" for t in plain.trades)
        # conservation still holds with forced trades
        assert with_div.equity[-1] == 500_000.0 + sum(t.pnl for t in with_div.trades)

    def test_forced_sell_ignored_while_flat(self):
        # same shape, but prices crash right after the rally start so the
        # smoothed strategy never owns anything at the confirm day
        closes = self.RALLY_WITH_TOP.copy()
        closes[:20] = np.linspace(150.0, 96.0, 20)  # deep prior downtrend
        series = series_from_closes(closes)
        _, with_div = self.into_modes(series)
        for trade in with_div.trades:
            assert trade.buy_index < trade.sell_index

    def test_no_events_means_identical_to_denoised(self):
        rising = series_from_closes(100.0 * 1.002 ** np.arange(200))
        plain, with_div = self.into_modes(rising)
        assert plain.trades == with_div.trades
        assert np.array_equal(plain.equity, with_div.equity)


@st.composite
def naive_runs(draw):
    """(closes, params, mode) of a random walk at least as long as the slow period."""
    fast = draw(st.integers(2, 12))
    params = MacdParams(fast, fast + draw(st.integers(1, 14)), draw(st.integers(1, 12)))
    n = draw(st.integers(params.slow, 400))
    closes = random_walk_closes(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n,
                                vol=0.02)
    return closes, params, draw(st.sampled_from(list(StrategyMode)))


class TestNaiveParity:
    """run_backtest against the 1-D composition of the public functions,
    traded by the day-by-day oracle."""

    @staticmethod
    def assert_matches_naive(closes, params, mode):
        series = series_from_closes(closes)
        log = run_backtest(series, params, mode)
        raw_ind, trade_ind, signals, forced = trade_inputs_naive(series, params, mode)
        trades, equity = backtest_naive(closes, signals, forced, 500_000.0)

        assert [(t.buy_index, t.sell_index, t.trigger) for t in log.trades] == \
               [(t[0], t[1], t[6]) for t in trades]
        assert [(t.buy_price, t.sell_price, t.quantity, t.pnl) for t in log.trades] == \
               [t[2:6] for t in trades]
        assert np.array_equal(log.equity, equity)
        # the lines the run traded on, as the chart shows them
        lines = log.lines
        assert np.array_equal(lines.dif, raw_ind.dif)
        assert np.array_equal(lines.trade_dif, trade_ind.dif)
        assert np.array_equal(lines.dea, trade_ind.dea)
        assert np.array_equal(lines.signals, signals)
        assert lines.forced.tolist() == [forced.get(t, 0) for t in range(len(closes))]

    @settings(max_examples=60, deadline=None)
    @given(run=naive_runs())
    def test_trades_and_equity_match_exactly(self, run):
        self.assert_matches_naive(*run)

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_series_too_short_for_divergences(self, mode):
        # every length from the slow period up to the first one with room
        # for a divergence: no forced action in any mode
        rng = np.random.default_rng(17)
        params = MacdParams(3, 5, 2)
        for n in range(params.slow, PROMINENCE_WINDOW + 3):
            self.assert_matches_naive(random_walk_closes(rng, n, vol=0.02), params, mode)


class TestModeFacts:
    @pytest.mark.parametrize("mode, facts", [
        (StrategyMode.RAW, ("raw", "none", False)),
        (StrategyMode.DENOISED, ("denoised", "periodized", False)),
        (StrategyMode.DENOISED_WITH_DIVERGENCE, ("divergence", "periodized", True)),
    ])
    def test_each_mode_is_a_filter_and_an_overlay(self, mode, facts):
        assert (mode.value, mode.filter, mode.divergence) == facts

    def test_facts_are_read_only(self):
        with pytest.raises(AttributeError):
            StrategyMode.RAW.filter = "periodized"


def redrawn_after(closes, t, seed):
    """closes with every day after t replaced by a fresh walk from closes[t]."""
    tail = random_walk_closes(np.random.default_rng(seed), len(closes) - t - 1, vol=0.02,
                              start=closes[t])
    return np.concatenate([closes[:t + 1], tail])


def tags_before_and_after(closes, t, seed, params, mode):
    """prepare's lines on the closes and on their redraw after day t."""
    return [BatchBacktest(series_from_closes(c), mode).prepare(params)
            for c in (closes, redrawn_after(closes, t, seed))]


class TestLookAhead:
    """Which tags of day t read closes after t: redrawing the closes
    after t leaves raw mode's crossover tags and every mode's
    divergence-forced tags up to t as they were; the periodized filter's
    crossover tags move (the README's look-ahead note)."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(60, 400), data=st.data())
    def test_raw_tags_and_forced_tags_use_only_past_closes(self, seed, n, data):
        closes = random_walk_closes(np.random.default_rng(seed), n, vol=0.02)
        t = data.draw(st.integers(0, n - 2), label="t")
        params = []
        for _ in range(2):
            fast = data.draw(st.integers(2, 20), label="fast")
            params.append(MacdParams(fast, fast + data.draw(st.integers(1, 30), label="gap"),
                                     data.draw(st.integers(1, 25), label="signal")))
        redraw = data.draw(st.integers(0, 2**32 - 1), label="redraw")
        for mode in StrategyMode:
            before, after = tags_before_and_after(closes, t, redraw, params, mode)
            assert np.array_equal(before.forced[:, :t + 1], after.forced[:, :t + 1])
            if mode.filter == "none":
                assert np.array_equal(before.signals[:, :t + 1], after.signals[:, :t + 1])

    @pytest.mark.parametrize("mode", [StrategyMode.DENOISED,
                                      StrategyMode.DENOISED_WITH_DIVERGENCE])
    def test_periodized_crossovers_read_later_closes(self, mode):
        closes = random_walk_closes(np.random.default_rng(21), 400, vol=0.015)
        before, after = tags_before_and_after(closes, 200, 22,
                                              [MacdParams(), MacdParams(8, 17, 9)], mode)
        assert not np.array_equal(before.signals[:, :201], after.signals[:, :201])


def stride_sample(step):
    """Every `step`-th valid triple of the default GA bounds."""
    triples = [(f, s, z) for f in range(5, 21) for s in range(20, 51) for z in range(5, 26)
               if f < s]
    return triples[::step]


class TestBatchBacktest:
    @pytest.fixture(scope="class")
    def series(self):
        return series_from_closes(random_walk_closes(np.random.default_rng(1000), 1000, vol=0.015))

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_nets_equal_evaluate_fitness(self, series, mode):
        triples = stride_sample(37)
        assert len(triples) >= 250
        assert BatchBacktest(series, mode).nets(triples) == \
               [evaluate_fitness(genes, series, mode) for genes in triples]

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_all_at_once_equals_one_by_one(self, series, mode):
        triples = stride_sample(101)
        batch = BatchBacktest(series, mode)
        assert batch.nets(triples) == [batch.nets([genes])[0] for genes in triples]

    def test_short_series_rejected_at_first_offending_triple(self, make_series):
        batch = BatchBacktest(make_series(random_walk_closes(np.random.default_rng(2), 30)),
                              StrategyMode.DENOISED_WITH_DIVERGENCE)
        with pytest.raises(DataError, match="series too short: 30 rows < slow period 40"):
            batch.nets([(5, 26, 9), (5, 40, 9), (5, 45, 9)])

    def test_bad_capital_rejected(self, series):
        with pytest.raises(ValueError, match="initial capital must be positive"):
            BatchBacktest(series, StrategyMode.RAW, 0.0).nets([(12, 26, 9)])

    def test_bad_triple_rejected_like_macd_params(self, series):
        with pytest.raises(ConfigError):
            BatchBacktest(series, StrategyMode.RAW).nets([(12, 26, 9), (26, 26, 9)])

    def test_no_triples(self, series):
        assert BatchBacktest(series, StrategyMode.RAW).nets([]) == []

    @pytest.mark.parametrize("mode", list(StrategyMode))
    @pytest.mark.parametrize("chunk_bytes", [1, 1 << 40], ids=["one_row_chunks", "one_chunk"])
    def test_nets_do_not_depend_on_chunking(self, series, mode, chunk_bytes, monkeypatch):
        triples = stride_sample(101)
        expected = BatchBacktest(series, mode).nets(triples)
        monkeypatch.setattr(backtest, "CHUNK_BYTES", chunk_bytes)
        assert BatchBacktest(series, mode).nets(triples) == expected


class TestTrendCache:
    """A BatchBacktest keeps each (fast, slow) pair's wavelet trend across
    calls, as the GA's generations make them: nets stay those of a fresh
    instance and of run_backtest."""

    @pytest.fixture(scope="class")
    def series(self):
        return series_from_closes(random_walk_closes(np.random.default_rng(1001), 600, vol=0.015))

    @staticmethod
    def generations():
        """Three overlapping triple sets: repeated triples, pairs met
        before under another signal, and new slows for a fast already seen."""
        grid = stride_sample(1)
        rng = np.random.default_rng(8)
        calls = []
        for k in range(3):
            triples = [grid[i] for i in rng.choice(len(grid), 40, replace=False)]
            triples += [(12, 26, 9 + k), (12, 26 + k, 9), (5, 20 + k, 5 + k)]
            if calls:
                triples += calls[-1][:10]
            calls.append(triples)
        return calls

    @pytest.mark.parametrize("mode", [StrategyMode.DENOISED, StrategyMode.DENOISED_WITH_DIVERGENCE])
    def test_reused_batch_matches_fresh_and_run_backtest(self, series, mode):
        batch = BatchBacktest(series, mode)
        for triples in self.generations():
            nets = batch.nets(triples)
            assert nets == BatchBacktest(series, mode).nets(triples)
            assert nets == [run_backtest(series, MacdParams(*genes), mode).net for genes in triples]

    def test_one_trend_row_per_pair(self, series):
        batch = BatchBacktest(series, StrategyMode.DENOISED)
        calls = self.generations()
        for triples in calls:
            batch.nets(triples)
        pairs = {genes[:2] for triples in calls for genes in triples}
        assert set(batch.cache._trends) == pairs
        assert all(trend.shape == (-(-len(series) // 16),) for trend in batch.cache._trends.values())

    def test_raw_mode_keeps_no_trend(self, series):
        batch = BatchBacktest(series, StrategyMode.RAW)
        batch.nets(self.generations()[0])
        assert batch.cache._trends == {}


class TestSplitBatch:
    """A batch spread over forked processes (the `cpus` fixture, with one
    row-day of work enough for a process of its own) gives the nets of
    one process and of run_backtest, bit for bit, and leaves this
    process's cache holding every pair's trend."""

    @pytest.fixture(scope="class")
    def series(self):
        return series_from_closes(random_walk_closes(np.random.default_rng(1002), 400, vol=0.015))

    @pytest.fixture
    def split(self, cpus, monkeypatch):
        monkeypatch.setattr(backtest, "ROW_DAYS_PER_PROCESS", 1)
        return cpus

    @staticmethod
    def triples():
        """Triples whose (fast, slow) pairs recur under other signals, so
        that a pair's rows must stay in one process."""
        grid = stride_sample(53)
        return grid + [(f, s, 25 - z) for f, s, z in grid[::3]] + [(12, 26, 9)] * 3

    @staticmethod
    def bits(nets):
        return np.array(nets).tobytes()

    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_nets_equal_one_process_and_run_backtest(self, series, mode, count, split):
        triples = self.triples()
        forked = split(1)
        one = BatchBacktest(series, mode).nets(triples)
        assert forked == []
        forked = split(count)
        batch = BatchBacktest(series, mode)
        assert self.bits(batch.nets(triples)) == self.bits(one)
        assert len(forked) == count - 1 and no_child_left()
        assert self.bits(one) == self.bits([run_backtest(series, MacdParams(*genes), mode).net
                                            for genes in triples])

    @pytest.mark.parametrize("mode", list(StrategyMode))
    def test_cache_keeps_every_pair_trend(self, series, mode, split, monkeypatch):
        triples = self.triples()
        split(1)
        one = BatchBacktest(series, mode)
        one.nets(triples)
        forked = split(3)
        batch = BatchBacktest(series, mode)
        batch.nets(triples)
        assert len(forked) == 2
        trends = {pair: trend.tobytes() for pair, trend in batch.cache._trends.items()}
        assert trends == {pair: trend.tobytes() for pair, trend in one.cache._trends.items()}
        assert set(trends) == (set() if mode is StrategyMode.RAW
                               else {genes[:2] for genes in triples})
        # a later call, in one process, analyses none of those pairs again
        monkeypatch.setattr(backtest, "denoise_analysis", None)
        split(1)
        assert batch.nets(triples[::7]) == one.nets(triples[::7])

    @pytest.mark.parametrize("mode", [StrategyMode.DENOISED, StrategyMode.DENOISED_WITH_DIVERGENCE])
    def test_each_pair_is_analysed_in_one_process(self, series, mode, split, tmp_path,
                                                  monkeypatch):
        """The rows each process analyses, written to one file, add up to
        one per distinct pair, though a pair's triples lie far apart."""
        analysed = tmp_path / "analysed"
        analysis = backtest.denoise_analysis

        def count_analysis(dif):
            with open(analysed, "a", encoding="utf-8") as fh:
                fh.write(f"{len(dif)}\n")
            return analysis(dif)

        monkeypatch.setattr(backtest, "denoise_analysis", count_analysis)
        triples = self.triples()
        forked = split(3)
        BatchBacktest(series, mode).nets(triples)
        assert len(forked) == 2
        rows = map(int, analysed.read_text(encoding="utf-8").split())
        assert sum(rows) == len({genes[:2] for genes in triples})

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), days=st.integers(50, 300),
           mode=st.sampled_from(list(StrategyMode)), count=st.integers(2, 4),
           triples=st.lists(st.tuples(st.integers(5, 20), st.integers(21, 50),
                                      st.integers(5, 25)), min_size=1, max_size=40))
    def test_any_batch_splits_bit_for_bit(self, seed, days, mode, count, triples, split):
        series = series_from_closes(random_walk_closes(np.random.default_rng(seed), days,
                                                       vol=0.02))
        triples = [(f, min(s, days), z) for f, s, z in triples]
        split(1)
        one = BatchBacktest(series, mode).nets(triples)
        forked = split(count)
        assert self.bits(BatchBacktest(series, mode).nets(triples)) == self.bits(one)
        assert len(forked) == min(count, len({genes[:2] for genes in triples})) - 1
        assert no_child_left()

    def test_too_short_series_is_rejected_before_any_fork(self, make_series, split):
        forked = split(2)
        batch = BatchBacktest(make_series(random_walk_closes(np.random.default_rng(2), 30)),
                              StrategyMode.DENOISED_WITH_DIVERGENCE)
        with pytest.raises(DataError, match="series too short: 30 rows < slow period 40"):
            batch.nets([(5, 26, 9), (6, 26, 9), (5, 40, 9), (7, 28, 9)])
        assert forked == [] and no_child_left()

    @pytest.mark.parametrize("error", [LookupError, KeyboardInterrupt])
    @pytest.mark.parametrize("raising", ["this process", "a child"])
    def test_every_child_is_reaped_when_a_block_raises(self, series, raising, error, split,
                                                        monkeypatch):
        parent = os.getpid()
        prepare = BatchBacktest.prepare

        def failing(batch, params):
            if (os.getpid() == parent) == (raising == "this process"):
                raise error(f"failed in {raising}")
            return prepare(batch, params)

        monkeypatch.setattr(BatchBacktest, "prepare", failing)
        forked = split(3)
        with pytest.raises(error, match=f"^failed in {raising}$"):
            BatchBacktest(series, StrategyMode.DENOISED).nets(self.triples())
        assert len(forked) == 2 and no_child_left()


class TestSharedCache:
    """One SeriesCache reused by every mode, in any order and around a
    nets call that fills it with a batch's EMAs, trends and divergence
    pairs, gives what a fresh PriceSeries gives each call, bit for bit.
    A mode that runs first must not leave a later one without its part
    (the divergence pairs are computed only when a divergence run asks)."""

    @staticmethod
    def logged(log):
        return ([tuple(vars(t).values()) for t in log.trades], log.equity.tobytes(),
                np.float64(log.net).tobytes())

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), days=st.integers(50, 260),
           fast=st.integers(5, 20), slow=st.integers(21, 50), signal=st.integers(5, 25),
           before=st.permutations(list(StrategyMode)), batched=st.sampled_from(list(StrategyMode)),
           after=st.permutations(list(StrategyMode)))
    def test_shared_cache_matches_fresh_series(self, seed, days, fast, slow, signal,
                                               before, batched, after):
        series = series_from_closes(random_walk_closes(np.random.default_rng(seed), days,
                                                       vol=0.02))
        params = MacdParams(fast, min(slow, days), signal)
        triples = [params.as_tuple(), (fast, params.slow, 5), (5, 20, signal), (12, 26, 9)]
        cache = SeriesCache(series)
        for mode in before:
            assert self.logged(run_backtest(cache, params, mode)) == \
                self.logged(run_backtest(series, params, mode))
        nets = BatchBacktest(cache, batched).nets(triples)
        assert np.array(nets).tobytes() == \
            np.array(BatchBacktest(series, batched).nets(triples)).tobytes()
        for mode in after:
            assert self.logged(run_backtest(cache, params, mode)) == \
                self.logged(run_backtest(series, params, mode))
            assert BatchBacktest(cache, mode).nets(triples) == \
                BatchBacktest(series, mode).nets(triples)


def numpy_tallies(pnls):
    """(wins, gross profit, gross loss) of one row's pnls, its gains and
    its losses each summed in trade order by numpy."""
    pnls = np.array(pnls, dtype=float)
    return int((pnls > 0).sum()), float(pnls[pnls > 0].sum()), float(-pnls[pnls < 0].sum())


def naive_logs(closes, signals, forced, capital):
    """Each row's trades, equity bytes and tallies, traded by the
    day-by-day oracle."""
    logs = []
    for row_signals, row_forced in zip(signals, forced):
        days = np.flatnonzero(row_forced).tolist()
        trades, equity = backtest_naive(closes, row_signals,
                                        dict(zip(days, row_forced[days].tolist())), capital)
        logs.append((trades, np.array(equity).tobytes(),
                     numpy_tallies([trade[5] for trade in trades])))
    return logs


def trade_logs(closes, signals, forced, capital):
    """Each row's trades, equity bytes and tallies, from run_backtest's
    trade log."""
    closes = np.asarray(closes, dtype=float)
    logs = (_trade_log(closes, *row, capital) for row in zip(signals, forced))
    return [(trades, equity.tobytes(), tallies) for trades, equity, tallies in logs]


def naive(closes, signals, forced, capital):
    """Each row's round-trip days and net, traded by the day-by-day oracle."""
    logs = naive_logs(closes, signals, forced, capital)
    return ([[trade[:2] for trade in trades] for trades, _, _ in logs],
            [gain - loss for _, _, (_, gain, loss) in logs])


def batched(closes, signals, forced, capital):
    """Each row's round-trip days and net, walked and tallied as a batch,
    as BatchBacktest.nets does."""
    counts, buys, sells = _round_trips(signals, forced)
    ends = np.cumsum(counts).tolist()
    trips = list(zip(buys.tolist(), sells.tolist()))
    days = [trips[end - count:end] for count, end in zip(counts.tolist(), ends)]
    _, pnl, _ = _walk(np.asarray(closes, dtype=float), counts, buys, sells, capital)
    _, gains, losses = _tallies(counts, pnl)
    return days, [gain - loss for gain, loss in zip(gains, losses)]


@st.composite
def tag_batches(draw):
    """(closes, signals, forced, capital): random {-1, 0, 1} crossover and
    forced tags over positive closes swinging by up to 10^6 a day."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    tags = arrays(np.int8, (rows, n), elements=st.integers(-1, 1))
    closes = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return closes, draw(tags), draw(tags), draw(st.floats(1e-3, 1e12))


class TestBatchedWalk:
    """The batched walk BatchBacktest.nets runs and the trade log
    run_backtest keeps against the day-by-day oracle, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(batch=tag_batches())
    def test_matches_naive_backtest(self, batch):
        closes, signals, forced, capital = batch
        ones = [1.0] * len(closes)  # no cash ever runs out: every state change trades
        assert batched(ones, signals, forced, capital)[0] == naive(ones, signals, forced, capital)[0]
        assert batched(*batch)[1] == naive(*batch)[1]
        assert trade_logs(*batch) == naive_logs(*batch)  # trades, equity and tallies

    @pytest.mark.parametrize("signals, forced", [
        ([[1], [-1], [0]], [[0], [0], [-1]]),  # one day: nothing trades
        ([[1, -1], [1, 0], [0, 1], [1, 1]], [[0, 0], [0, 0], [0, 0], [0, -1]]),  # two days
        ([[0, 0, 0, 0, 0, 0]], [[0, 0, 0, 0, 0, 0]]),  # no events
        ([[0, 0, 1, -1, 0, 1]], [[0, 0, 0, 0, 0, 0]]),  # a buy on the last day
        ([[0, 1, 0, 1, -1, 0]], [[0, -1, 0, 0, 1, 0]]),  # forced opposite a crossover
        ([[1, 1, -1, -1, 1, 1]], [[0, 0, 0, 0, 0, 0]]),  # repeated tags
        ([[0, 1, 0, -1, 1, 0], [1, 0, 0, 0, 0, -1]], [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]),
        ([[0, 1, 0, 0, 0, 1], [0, 1, 0, 0, 0, -1]],  # a forced and a crossover sell on the last day
         [[0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 0, 0]]),
        ([[0, 1, 0, 1, 0, 0]], [[0, 0, 0, -1, 0, 0]]),  # a forced sell over a crossover buy
    ], ids=["n1", "n2", "no_events", "last_day_buy", "forced_over_cross", "repeats",
            "ends_holding", "sell_on_last_day", "forced_sell_over_cross_buy"])
    def test_edge_cases(self, signals, forced):
        signals, forced = np.array(signals, dtype=np.int8), np.array(forced, dtype=np.int8)
        closes = [10.0, 12.5, 9.0, 11.0, 8.5, 13.0][:signals.shape[1]]
        assert batched(closes, signals, forced, 1000.0) == naive(closes, signals, forced, 1000.0)
        assert trade_logs(closes, signals, forced, 1000.0) == \
               naive_logs(closes, signals, forced, 1000.0)

    def test_cash_rounded_below_zero_stops_trading(self):
        # The crash leaves cash at -5.8e-11 after telescoping: the next
        # buy gets a negative quantity, and the row never trades again.
        # It stays "long" that quantity, bought at day 2, to the end.
        signals = np.array([[1, -1, 1, -1, 0]], dtype=np.int8)
        forced = np.zeros_like(signals)
        closes = [1e300, 1.0, 1.0, 2.0, 2.0]
        days, nets = naive(closes, signals, forced, 500_000.0)
        assert days == [[(0, 1)]]
        assert batched(closes, signals, forced, 500_000.0)[1] == nets
        [(trades, equity, tallies)] = trade_logs(closes, signals, forced, 500_000.0)
        assert len(trades) == 1
        assert np.frombuffer(equity)[1:] == pytest.approx(
            [-5.82e-11, -5.82e-11, -1.16e-10, -1.16e-10], rel=1e-2)
        # The one loss is all that is tallied: the buy the row stopped at made no trade.
        assert tallies == (0, 0.0, -trades[0][5])
        assert [(trades, equity, tallies)] == naive_logs(closes, signals, forced, 500_000.0)
