"""MACD trading laboratory.

Loads per-instrument closing prices, computes MACD-family indicators,
optionally smooths the fast-slow spread with a wavelet low-pass
reconstruction, detects price/histogram divergences, backtests the
resulting signals, scores the runs with standard performance metrics,
and searches per-instrument indicator periods with a genetic algorithm.
"""

__version__ = "0.1.0"

from .ingest import PriceSeries, load_csv, save_csv, clean
from .indicators import MacdParams, IndicatorSeries, SignalSeries, ema, compute_indicators, cross_signals
from .wavelet import WaveletFilter, Decomposition, coif5_filters, haar_filters, dwt_step, decompose, reconstruct, reconstruct_approx, denoise_dif
from .analysis import OscillationMask, DivergenceEvent, detect_oscillation, find_local_extrema, detect_divergences
from .backtest import SeriesCache, StrategyMode, Trade, TradeLog, run_backtest, recompute_dea_from_denoised
from .metrics import RiskConfig, MetricsReport, compute_metrics
from .optimizer import GaConfig, OptimizeResult, optimize, evaluate_fitness

__all__ = [
    "PriceSeries", "load_csv", "save_csv", "clean",
    "MacdParams", "IndicatorSeries", "SignalSeries", "ema", "compute_indicators", "cross_signals",
    "WaveletFilter", "Decomposition", "coif5_filters", "haar_filters", "dwt_step",
    "decompose", "reconstruct", "reconstruct_approx", "denoise_dif",
    "OscillationMask", "DivergenceEvent", "detect_oscillation", "find_local_extrema", "detect_divergences",
    "SeriesCache", "StrategyMode", "Trade", "TradeLog", "run_backtest", "recompute_dea_from_denoised",
    "RiskConfig", "MetricsReport", "compute_metrics",
    "GaConfig", "OptimizeResult", "optimize", "evaluate_fitness",
]
