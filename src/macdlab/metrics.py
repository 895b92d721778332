"""The seven performance indicators computed from a trade log.

All ratio metrics are reported in percent (60.0 means 60%); total_return
is in currency units. sharpe_ratio is None when the equity curve has no
variance to measure it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backtest import TradeLog
from .errors import ConfigError

REPORT_COLUMNS = (
    "win_rate",
    "odds_ratio",
    "trade_frequency",
    "total_return",
    "annual_return",
    "sharpe_ratio",
    "max_drawdown",
)


@dataclass(frozen=True)
class RiskConfig:
    """Annual risk-free rate in percent and the trading-day year length."""

    risk_free_rate: float = 2.653
    trading_days_per_year: int = 252

    def __post_init__(self):
        if not math.isfinite(self.risk_free_rate):
            raise ConfigError(f"risk-free rate must be finite, got {self.risk_free_rate}")
        if self.trading_days_per_year < 1:
            raise ConfigError(f"trading days per year must be >= 1, got {self.trading_days_per_year}")


@dataclass
class MetricsReport:
    win_rate: float
    odds_ratio: float
    trade_frequency: float
    total_return: float
    annual_return: float
    sharpe_ratio: float | None
    max_drawdown: float

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_COLUMNS}


def max_drawdown_pct(equity) -> float:
    """Largest peak-to-trough relative decline of the curve, in percent."""
    curve = np.asarray(equity, dtype=float)
    running_peak = np.maximum.accumulate(curve)
    return float(((running_peak - curve) / running_peak).max() * 100.0)


def compute_metrics(log: TradeLog, series_span_days: int, cfg: RiskConfig = RiskConfig()) -> MetricsReport:
    """Score a trade log over a series spanning `series_span_days` trading days.

    win_rate: profitable sells over sells. odds_ratio: average winning
    profit over average losing loss, 0 by convention when there are no
    losing (or no winning) trades. trade_frequency: executions per
    trading day. annual_return: geometric, with the year count taken as
    span/252, and -100 at a total loss (final equity <= 0). sharpe_ratio:
    annualized mean daily equity return minus the risk-free rate, over
    annualized daily volatility.
    """
    v_initial = log.initial_capital
    if v_initial <= 0:
        raise ValueError(f"initial capital must be positive, got {v_initial}")
    if series_span_days < 1:
        raise ValueError(f"series span must be >= 1 day, got {series_span_days}")
    equity = np.asarray(log.equity, dtype=float)
    if equity.size == 0:
        raise ValueError("empty equity curve")
    v_final = float(equity[-1])

    win_rate = 100.0 * log.n_wins / log.n_sells if log.n_sells else 0.0

    n_losses = log.n_sells - log.n_wins
    if log.n_wins == 0 or n_losses == 0 or log.gross_loss == 0.0:
        odds_ratio = 0.0
    else:
        odds_ratio = 100.0 * (log.gross_profit / log.n_wins) / (log.gross_loss / n_losses)

    trade_frequency = 100.0 * log.n_total / series_span_days

    total_return = v_final - v_initial

    years = series_span_days / cfg.trading_days_per_year
    if v_final <= 0.0:
        annual_return = -100.0  # a total loss; a negative ratio has no real root
    else:
        annual_return = ((v_final / v_initial) ** (1.0 / years) - 1.0) * 100.0

    sharpe_ratio = None
    if equity.size >= 2:
        daily = equity[1:] / equity[:-1] - 1.0
        vol = float(daily.std(ddof=1)) if daily.size >= 2 else 0.0
        if vol > 0.0:
            annual_mean = float(daily.mean()) * cfg.trading_days_per_year
            annual_vol = vol * math.sqrt(cfg.trading_days_per_year)
            sharpe_ratio = (annual_mean - cfg.risk_free_rate / 100.0) / annual_vol * 100.0

    return MetricsReport(
        win_rate=win_rate,
        odds_ratio=odds_ratio,
        trade_frequency=trade_frequency,
        total_return=total_return,
        annual_return=annual_return,
        sharpe_ratio=sharpe_ratio,
        max_drawdown=max_drawdown_pct(equity),
    )
