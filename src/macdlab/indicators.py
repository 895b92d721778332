"""Exponential moving averages, the fast-slow spread (DIF), its signal
line (DEA), the MACD histogram, and raw crossover signals."""

from __future__ import annotations

import importlib.util
import os
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .errors import ConfigError
from .ingest import PriceSeries

_SIGTOOLS = "scipy.signal._sigtools"


def _sigtools_path() -> str | None:
    """The file of scipy's compiled signal-filter extension, or None."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or []:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "signal", "_sigtools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_linear_filter():
    """scipy's compiled IIR kernel, the one scipy.signal.lfilter calls.

    The extension is loaded from its file, so the scipy.signal package
    (with scipy.stats, scipy.interpolate and the window functions it
    imports, over a second of start-up) is never imported. If the file
    is not where scipy's layout puts it, the same kernel is imported the
    ordinary way.
    """
    path = _sigtools_path()
    if path is None:
        from scipy.signal._sigtools import _linear_filter

        return _linear_filter
    loader = ExtensionFileLoader(_SIGTOOLS, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_SIGTOOLS, loader))
    loader.exec_module(module)
    return module._linear_filter


_linear_filter = _load_linear_filter()

# Per-day signal tags.
SIGNAL_NONE = 0
SIGNAL_BUY = 1
SIGNAL_SELL = -1


def is_integer(value) -> bool:
    """An int or numpy integer, not a bool: the type of every period and count."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MacdParams:
    """Integer periods of the three moving averages: fast, slow, signal."""

    fast: int = 12
    slow: int = 26
    signal: int = 9

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_integer(value) or value < 1:
                raise ConfigError(f"{name} period must be an integer >= 1, got {value!r}")
        if self.fast >= self.slow:
            raise ConfigError(f"fast period must be below slow period, got {self.fast} >= {self.slow}")

    def as_tuple(self) -> tuple[int, int, int]:
        return (int(self.fast), int(self.slow), int(self.signal))


@dataclass
class IndicatorSeries:
    """DIF, DEA and histogram arrays aligned 1:1 with the source closes.

    The arrays may also be 2-D, one row per parameter triple, days along
    the last axis.
    """

    dif: np.ndarray
    dea: np.ndarray
    macd: np.ndarray

    def __post_init__(self):
        self.dif = np.asarray(self.dif, dtype=float)
        self.dea = np.asarray(self.dea, dtype=float)
        self.macd = np.asarray(self.macd, dtype=float)
        if not (self.dif.shape == self.dea.shape == self.macd.shape):
            raise ValueError("dif, dea and macd must have equal length")

    @classmethod
    def from_dif_dea(cls, dif: np.ndarray, dea: np.ndarray) -> "IndicatorSeries":
        dif = np.asarray(dif, dtype=float)
        dea = np.asarray(dea, dtype=float)
        return cls(dif=dif, dea=dea, macd=2.0 * (dif - dea))

    def __len__(self) -> int:
        return len(self.dif)


@dataclass
class SignalSeries:
    """Per-day crossover tags: SIGNAL_BUY, SIGNAL_SELL or SIGNAL_NONE."""

    signals: np.ndarray

    def __post_init__(self):
        self.signals = np.asarray(self.signals, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.signals)


def ema(values, n: int) -> np.ndarray:
    """Exponential moving average with alpha = 2/(n+1), along the last axis.

    Seeded from the first value: e[0] = (1 - alpha) * x0 + alpha * x0
    with x0 = values[0], which rounds to x0 or to a float 1 ulp from it,
    and e[t] = alpha * values[t] + (1 - alpha) * e[t-1].

    This is scipy.signal.lfilter([alpha], [1, alpha - 1], x, axis=-1,
    zi=(1 - alpha) * x[..., :1]), bit for bit: the same compiled kernel
    with the arguments lfilter passes it. scipy stays a dependency, but
    only that kernel (in scipy's private `_sigtools` extension) is
    loaded; should the module move, the loader falls back to importing
    it, and tests hold both routes to lfilter's output.
    """
    if n < 1:
        raise ValueError(f"ema period must be >= 1, got {n}")
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("ema of empty input")
    alpha = 2.0 / (n + 1.0)
    # First-order IIR. The initial condition gives e[0] = (1 - alpha) *
    # x[0] + alpha * x[0], within 1 ulp of x[0] but not always equal to it.
    out, _ = _linear_filter(np.array([alpha]), np.array([1.0, alpha - 1.0]), x, -1,
                            (1.0 - alpha) * x[..., :1])
    return out


def compute_indicators(prices: PriceSeries | np.ndarray, params: MacdParams) -> IndicatorSeries:
    """DIF = fast EMA - slow EMA of closes; DEA = EMA of DIF; histogram = 2*(DIF-DEA)."""
    closes = prices.closes if isinstance(prices, PriceSeries) else np.asarray(prices, dtype=float)
    if closes.size == 0:
        raise ValueError("cannot compute indicators on an empty series")
    dif = ema(closes, params.fast) - ema(closes, params.slow)
    dea = ema(dif, params.signal)
    return IndicatorSeries.from_dif_dea(dif, dea)


def cross_signals(ind: IndicatorSeries) -> SignalSeries:
    """Tag strict DIF/DEA crossings (only `ind.dif` and `ind.dea` are read).

    Day t is a buy iff dif was at or below dea on t-1 and strictly above
    on t; a sell mirrors that downward. Day 0 is always untagged. Days
    run along the last axis.
    """
    if ind.dif.size == 0:
        raise ValueError("cross_signals on empty indicator series")
    dif, dea = ind.dif, ind.dea
    signals = np.zeros(dif.shape, dtype=np.int8)
    up = (dif[..., :-1] <= dea[..., :-1]) & (dif[..., 1:] > dea[..., 1:])
    down = (dif[..., :-1] >= dea[..., :-1]) & (dif[..., 1:] < dea[..., 1:])
    # up and down are disjoint, so up - down is the tag: SIGNAL_BUY (1),
    # SIGNAL_SELL (-1) or SIGNAL_NONE (0)
    np.subtract(up, down, out=signals[..., 1:], dtype=np.int8)
    return SignalSeries(signals)
