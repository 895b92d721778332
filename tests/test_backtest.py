import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
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
from macdlab.backtest import BatchBacktest, _round_trips, _tallies, _trade_log, _walk_nets
from macdlab.errors import ConfigError, DataError
from macdlab.indicators import SIGNAL_BUY

from conftest import random_walk_closes, series_from_closes
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
        assert set(batch._trends) == pairs
        assert all(trend.shape == (-(-len(series) // 16),) for trend in batch._trends.values())

    def test_raw_mode_keeps_no_trend(self, series):
        batch = BatchBacktest(series, StrategyMode.RAW)
        batch.nets(self.generations()[0])
        assert batch._trends == {}


def naive_logs(closes, signals, forced, capital):
    """Each row's trades and equity bytes, traded by the day-by-day oracle."""
    logs = []
    for row_signals, row_forced in zip(signals, forced):
        days = np.flatnonzero(row_forced).tolist()
        trades, equity = backtest_naive(closes, row_signals,
                                        dict(zip(days, row_forced[days].tolist())), capital)
        logs.append((trades, np.array(equity).tobytes()))
    return logs


def trade_logs(closes, signals, forced, capital):
    """Each row's trades and equity bytes, from run_backtest's trade log."""
    closes = np.asarray(closes, dtype=float)
    logs = (_trade_log(closes, *row, capital) for row in zip(signals, forced))
    return [(trades, equity.tobytes()) for trades, equity in logs]


def naive(closes, signals, forced, capital):
    """Each row's round-trip days and net, traded by the day-by-day oracle."""
    logs = naive_logs(closes, signals, forced, capital)
    return ([[trade[:2] for trade in trades] for trades, _ in logs],
            [_tallies([trade[5] for trade in trades])[3] for trades, _ in logs])


def batched(closes, signals, forced, capital):
    """Each row's round-trip days and net, from the batched walk."""
    counts, buys, sells = _round_trips(signals, forced)
    ends = np.cumsum(counts).tolist()
    trips = list(zip(buys.tolist(), sells.tolist()))
    days = [trips[end - count:end] for count, end in zip(counts.tolist(), ends)]
    return days, _walk_nets(np.asarray(closes, dtype=float), counts, buys, sells, capital)


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
        assert trade_logs(*batch) == naive_logs(*batch)

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
        [(trades, equity)] = trade_logs(closes, signals, forced, 500_000.0)
        assert len(trades) == 1
        assert np.frombuffer(equity)[1:] == pytest.approx(
            [-5.82e-11, -5.82e-11, -1.16e-10, -1.16e-10], rel=1e-2)
        assert [(trades, equity)] == naive_logs(closes, signals, forced, 500_000.0)
