import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macdlab import (MacdParams, MetricsReport, RiskConfig, StrategyMode, compute_metrics,
                     run_backtest)
from macdlab.backtest import Trade, TradeLog
from macdlab.errors import ConfigError
from macdlab.metrics import max_drawdown_pct

from oracles import max_drawdown_bruteforce, metrics_oracle


def make_log(pnls, equity, initial=500_000.0):
    """A consistent TradeLog from per-trade profits and an equity curve."""
    trades = []
    day = 0
    for pnl in pnls:
        trades.append(Trade(day, day + 1, 100.0, 100.0 + pnl, 1.0, float(pnl), "cross"))
        day += 2
    pnls = np.asarray(pnls, dtype=float)
    gross_profit = float(pnls[pnls > 0].sum()) if len(pnls) else 0.0
    gross_loss = float(-pnls[pnls < 0].sum()) if len(pnls) else 0.0
    return TradeLog(
        trades=trades,
        equity=np.asarray(equity, dtype=float),
        initial_capital=initial,
        n_total=2 * len(trades),
        n_sells=len(trades),
        n_wins=int((pnls > 0).sum()) if len(pnls) else 0,
        gross_profit=gross_profit,
        gross_loss=gross_loss,
        net=gross_profit - gross_loss,
    )


class TestRiskConfig:
    def test_defaults(self):
        cfg = RiskConfig()
        assert cfg.risk_free_rate == 2.653
        assert cfg.trading_days_per_year == 252

    def test_validation(self):
        with pytest.raises(ConfigError):
            RiskConfig(risk_free_rate=float("inf"))
        with pytest.raises(ConfigError):
            RiskConfig(trading_days_per_year=0)


class TestSevenMetrics:
    def test_win_rate_three_of_five(self):
        log = make_log([10, 20, 30, -5, -5], np.linspace(500_000, 550_000, 20))
        report = compute_metrics(log, 20)
        assert report.win_rate == 60.0

    def test_odds_ratio_hand_value(self):
        log = make_log([10_000, 20_000, -5_000], np.linspace(500_000, 525_000, 30))
        report = compute_metrics(log, 30)
        assert report.odds_ratio == pytest.approx(300.0)

    def test_all_profitable_gives_zero_odds(self):
        log = make_log([10_000, 5_000], np.linspace(500_000, 515_000, 30))
        report = compute_metrics(log, 30)
        assert report.win_rate == 100.0
        assert report.odds_ratio == 0.0

    def test_all_losing_gives_zero_odds(self):
        log = make_log([-10_000, -5_000], np.linspace(500_000, 485_000, 30))
        assert compute_metrics(log, 30).odds_ratio == 0.0

    def test_no_trades(self):
        log = make_log([], np.full(30, 500_000.0))
        report = compute_metrics(log, 30)
        assert report.win_rate == 0.0
        assert report.trade_frequency == 0.0
        assert report.total_return == 0.0

    def test_trade_frequency_counts_buys_and_sells(self):
        log = make_log([1, 1, 1], np.linspace(500_000, 500_300, 100))
        assert compute_metrics(log, 100).trade_frequency == pytest.approx(6.0)

    def test_annual_return_two_year_hand_value(self):
        equity = np.linspace(500_000, 605_000, 504)
        log = make_log([105_000.0], equity)
        report = compute_metrics(log, 504)  # exactly two 252-day years
        assert report.annual_return == pytest.approx(10.0, rel=1e-12)

    def test_annual_return_flat_is_zero(self):
        log = make_log([], np.full(100, 500_000.0))
        assert compute_metrics(log, 100).annual_return == 0.0

    def test_max_drawdown_hand_value(self):
        log = make_log([], np.array([100.0, 120.0, 90.0, 110.0]), initial=100.0)
        assert compute_metrics(log, 4).max_drawdown == pytest.approx(25.0)

    def test_constant_equity_sharpe_undefined(self):
        log = make_log([], np.full(50, 500_000.0))
        assert compute_metrics(log, 50).sharpe_ratio is None

    def test_total_loss_annual_return_is_minus_100(self):
        # Final equity rounded below zero: a fractional power of the
        # negative ratio would be complex.
        log = make_log([-500_000.0], np.linspace(500_000.0, -5.8e-11, 10))
        annual_return = compute_metrics(log, 10).annual_return
        assert type(annual_return) is float and annual_return == -100.0

    def test_gain_past_float_range_annual_return_is_inf(self):
        # (1e200) ** (252 / 10) is past the float range: float ** raises
        # OverflowError where * and / give inf.
        log = make_log([5e205], np.geomspace(500_000.0, 5e205, 10))
        assert compute_metrics(log, 10).annual_return == np.inf

    def test_crash_to_ruin_reports_real_annual_return(self, make_series):
        # A 1e20 price falling to 1.0 while held: the one trade loses the
        # capital to a cash of about -5.8e-11.
        closes = np.concatenate([1e20 * np.linspace(1.0, 0.9, 40),
                                 1e20 * np.linspace(0.9, 1.0, 20), np.ones(60)])
        series = make_series(closes)
        log = run_backtest(series, MacdParams(), StrategyMode.RAW)
        assert len(log.trades) == 1 and log.equity[-1] < 0
        report = compute_metrics(log, series.span_days)
        assert type(report.annual_return) is float and report.annual_return == -100.0

    def test_nonpositive_capital_rejected(self):
        log = make_log([], np.full(10, 500_000.0), initial=0.0)
        with pytest.raises(ValueError):
            compute_metrics(log, 10)

    def test_report_dict_round_trip(self):
        log = make_log([5.0], np.linspace(500_000, 500_005, 40))
        report = compute_metrics(log, 40)
        d = report.as_dict()
        assert list(d) == list(MetricsReport(0, 0, 0, 0, 0, None, 0).as_dict())


class TestDrawdownOracle:
    def test_single_pass_equals_bruteforce(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 60))
            equity = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, n)))
            assert max_drawdown_pct(equity) == max_drawdown_bruteforce(list(equity))

    def test_monotone_rising_has_zero_drawdown(self):
        assert max_drawdown_pct(np.linspace(1.0, 2.0, 50)) == 0.0


class TestProperties:
    def test_scaling_equity_by_k(self, rng):
        pnls = list(rng.normal(0, 10_000, 8))
        equity = 500_000.0 * np.exp(np.cumsum(np.concatenate([[0], rng.normal(0, 0.01, 59)])))
        base = compute_metrics(make_log(pnls, equity), 60)
        k = 3.5
        scaled_log = make_log(pnls, k * equity, initial=k * 500_000.0)
        scaled = compute_metrics(scaled_log, 60)
        assert scaled.win_rate == base.win_rate
        assert scaled.odds_ratio == base.odds_ratio
        assert scaled.annual_return == pytest.approx(base.annual_return, rel=1e-12)
        assert scaled.sharpe_ratio == pytest.approx(base.sharpe_ratio, rel=1e-9)
        assert scaled.max_drawdown == pytest.approx(base.max_drawdown, rel=1e-12)
        assert scaled.total_return == pytest.approx(k * base.total_return, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        span = int(rng.integers(3, 120))
        pnls = list(rng.normal(0, 20_000, int(rng.integers(0, 12))))
        steps = np.concatenate([[0.0], rng.normal(0.0005, 0.01, span - 1)])
        equity = 500_000.0 * np.exp(np.cumsum(steps))
        log = make_log(pnls, equity)
        report = compute_metrics(log, span)
        want = metrics_oracle(pnls, list(equity), 500_000.0, span)
        for key, expected in want.items():
            got = getattr(report, key)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)
