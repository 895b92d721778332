"""Oscillation-range detection and price/histogram divergence pairing."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .indicators import IndicatorSeries
from .ingest import PriceSeries

ROLLING_WINDOW = 10
BAND_LOW = 0.985
BAND_HIGH = 1.015

# A new extreme must beat every close in this many preceding days to
# qualify for divergence pairing.
PROMINENCE_WINDOW = 15
# ... and is paired with the most recent earlier qualifying extreme no
# further back than this.
PAIRING_LOOKBACK = 60


@dataclass
class OscillationMask:
    """Per-day sideways-market classification.

    mean10 is the trailing 10-day rolling mean (NaN while the window is
    short), inband marks closes strictly inside +/-1.5% of that mean,
    pairflag marks days whose close and next-day close are both in band,
    and mask marks the days inside a detected oscillation range.
    """

    mean10: np.ndarray
    inband: np.ndarray
    pairflag: np.ndarray
    mask: np.ndarray


@dataclass
class DivergenceEvent:
    """A paired extreme where price and histogram disagree.

    kind "top": a higher price high on a lower histogram high (sell
    predictor). kind "bottom": a lower price low on a higher histogram
    low (buy predictor). Value pairs are ordered (previous, current).
    """

    kind: str
    current_extreme_index: int
    previous_extreme_index: int
    price_at_extremes: tuple[float, float]
    macd_at_extremes: tuple[float, float]


def detect_oscillation(prices: PriceSeries) -> OscillationMask:
    """Flag days belonging to an oscillation range.

    A day is inside a range when its close and the previous day's close
    both sit strictly within (mean*0.985, mean*1.015) of their trailing
    10-day rolling means; runs of such days extend until the condition
    first fails.
    """
    closes = np.asarray(prices.closes, dtype=float)
    n = closes.size
    if n < ROLLING_WINDOW:
        raise ValueError(f"need at least {ROLLING_WINDOW} days, got {n}")

    mean10 = np.full(n, np.nan)
    kernel = np.full(ROLLING_WINDOW, 1.0 / ROLLING_WINDOW)
    mean10[ROLLING_WINDOW - 1:] = np.convolve(closes, kernel, mode="valid")

    inband = np.zeros(n, dtype=bool)
    win = ~np.isnan(mean10)
    inband[win] = (closes[win] > BAND_LOW * mean10[win]) & (closes[win] < BAND_HIGH * mean10[win])

    pairflag = np.zeros(n, dtype=bool)
    pairflag[:-1] = inband[:-1] & inband[1:]

    mask = np.zeros(n, dtype=bool)
    mask[1:] = pairflag[:-1]
    return OscillationMask(mean10=mean10, inband=inband, pairflag=pairflag, mask=mask)


def find_local_extrema(values) -> tuple[np.ndarray, np.ndarray]:
    """Indices of strict interior peaks and troughs."""
    x = np.asarray(values, dtype=float)
    if x.size < 3:
        raise ValueError(f"need at least 3 values, got {x.size}")
    mid, left, right = x[1:-1], x[:-2], x[2:]
    peaks = np.flatnonzero((mid > left) & (mid > right)) + 1
    troughs = np.flatnonzero((mid < left) & (mid < right)) + 1
    return peaks, troughs


def _qualifying(indices: np.ndarray, closes: np.ndarray, top: bool) -> np.ndarray:
    """Keep extrema that beat every close in the preceding prominence window."""
    t = indices[indices >= PROMINENCE_WINDOW]
    windows = sliding_window_view(closes, PROMINENCE_WINDOW)[t - PROMINENCE_WINDOW]
    if top:
        return t[closes[t] > windows.max(axis=1)]
    return t[closes[t] < windows.min(axis=1)]


def divergence_pairs(closes) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The price half of divergence detection, which no indicator affects.

    Maps "top" and "bottom" to (current, previous) index arrays: each
    prominent extreme paired with the most recent earlier one of its kind
    no further back than the lookback, kept when price makes a higher
    high (top) or a lower low (bottom). `macd_disagrees` then decides,
    per histogram, which pairs are divergences.
    """
    closes = np.asarray(closes, dtype=float)
    if closes.size < PROMINENCE_WINDOW + 2:
        raise ValueError(f"need at least {PROMINENCE_WINDOW + 2} days, got {closes.size}")
    peaks, troughs = find_local_extrema(closes)
    pairs = {}
    for kind, extrema in (("top", peaks), ("bottom", troughs)):
        candidates = _qualifying(extrema, closes, kind == "top")
        cur, prev = candidates[1:], candidates[:-1]
        if kind == "top":
            price_moves = closes[cur] > closes[prev]
        else:
            price_moves = closes[cur] < closes[prev]
        keep = (cur - prev <= PAIRING_LOOKBACK) & price_moves
        pairs[kind] = (cur[keep], prev[keep])
    return pairs


def macd_disagrees(macd: np.ndarray, kind: str, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Where the histogram fails to confirm price at each (cur, prev) pair:
    a lower high for "top", a higher low for "bottom". Days run along the
    last axis of `macd`, so a 2-D histogram gives one row of flags each."""
    if kind == "top":
        return macd[..., cur] < macd[..., prev]
    return macd[..., cur] > macd[..., prev]


def detect_divergences(prices: PriceSeries, ind: IndicatorSeries) -> list[DivergenceEvent]:
    """Pair prominent price extremes against the histogram.

    A top event at t needs: a strict price peak at t beating the prior
    15-day maximum, a most recent earlier such peak t' within 60 days,
    a higher high in price and a lower high in the histogram. Bottom
    events mirror all four conditions. Events come back ordered by their
    current extreme.
    """
    closes = np.asarray(prices.closes, dtype=float)
    macd = ind.macd
    if closes.size != macd.size:
        raise ValueError(f"price series ({closes.size}) and indicators ({macd.size}) not aligned")
    events = []
    for kind, (cur, prev) in divergence_pairs(closes).items():
        keep = macd_disagrees(macd, kind, cur, prev)
        for t, p in zip(cur[keep].tolist(), prev[keep].tolist()):
            events.append(DivergenceEvent(
                kind=kind,
                current_extreme_index=t,
                previous_extreme_index=p,
                price_at_extremes=(float(closes[p]), float(closes[t])),
                macd_at_extremes=(float(macd[p]), float(macd[t])),
            ))
    events.sort(key=lambda e: e.current_extreme_index)
    return events
