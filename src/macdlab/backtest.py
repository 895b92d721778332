"""Execute the crossover trading rules over a price series.

Each strategy mode is a filter of the traded DIF plus an optional
divergence overlay (StrategyMode.filter, .divergence): raw trades the
DIF/DEA crossings, denoised those of the periodized wavelet-smoothed
DIF against a signal line recomputed from it, and divergence adds to
denoised the divergence events that force entries and exits. Raw
crossovers and divergence-forced tags read only closes up to their day;
the periodized filter's crossovers also read later ones. All-in fills
at the signal day's close, no fees, fractional quantities.

BatchBacktest.prepare is the one place a mode becomes trading lines
and actions, for many parameter triples on one series at once (a row
each); _round_trips the one place actions become trades, the buy and
sell day of every round trip of a whole batch of rows; _walk the one
place trades get their quantities and pnls, and _tallies the one place
pnls become wins, gross profit and gross loss. run_backtest is the
one-row case of all four: it logs each trade's quantity, pnl and
trigger and the daily equity. For the optimizer, BatchBacktest.nets
computes only each row's net profit, for a whole batch at once. A
SeriesCache keeps what the series or a part of the triple decides (each
period's EMA, each (fast, slow) pair's wavelet trend, the divergence
pairs of the closes) across calls and modes: it is mode-free, so a GA
generation analyses only the pairs no earlier one has, and the modes of
one series share one cache.
tests/oracles.py's backtest_naive, trading one day at a time, is the
reference both are tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import forks
from .analysis import PROMINENCE_WINDOW, divergence_pairs, macd_disagrees
from .errors import DataError
from .indicators import (
    SIGNAL_BUY,
    SIGNAL_SELL,
    IndicatorSeries,
    MacdParams,
    cross_signals,
    ema,
)
from .ingest import PriceSeries
from .wavelet import denoise_analysis, denoise_synthesis

DEFAULT_CAPITAL = 500_000.0


class StrategyMode(enum.Enum):
    """All the program reads of a mode: `filter`, the smoothing of the
    traded DIF ("none", or "periodized" as wavelet.denoise_dif smooths),
    and `divergence`, whether divergence events force entries and exits."""

    RAW = "raw"
    DENOISED = "denoised"
    DENOISED_WITH_DIVERGENCE = "divergence"

    @property
    def filter(self) -> str:
        return "none" if self is StrategyMode.RAW else "periodized"

    @property
    def divergence(self) -> bool:
        return self is StrategyMode.DENOISED_WITH_DIVERGENCE


@dataclass
class Trade:
    """One closed buy/sell round trip.

    trigger records what closed the position: a downward crossing
    ("cross"), a forced divergence exit ("divergence"), or the end-of-
    series liquidation ("final_liquidation").
    """

    buy_index: int
    sell_index: int
    buy_price: float
    sell_price: float
    quantity: float
    pnl: float
    trigger: str


@dataclass
class SignalLines:
    """What a mode trades on, one row per parameter triple, days along the
    last axis.

    dif is the raw DIF; trade_dif is the line the crossings are read off
    (the wavelet-smoothed DIF, or dif itself in raw mode) and dea its
    signal line. signals holds the crossover tags (1 buy, -1 sell, 0
    none), forced the tag a divergence forces on a day (0 none), which
    wins over the crossover.
    """

    dif: np.ndarray
    trade_dif: np.ndarray
    dea: np.ndarray
    signals: np.ndarray
    forced: np.ndarray

    def row(self, i: int) -> SignalLines:
        return SignalLines(*(getattr(self, f.name)[i] for f in fields(self)))


@dataclass
class TradeLog:
    """Executed trades plus the daily equity curve and its tallies.

    lines holds what run_backtest traded on (one row), for charting.
    """

    trades: list[Trade]
    equity: np.ndarray = field(repr=False)
    initial_capital: float
    n_total: int
    n_sells: int
    n_wins: int
    gross_profit: float
    gross_loss: float
    net: float
    lines: SignalLines | None = field(default=None, repr=False, compare=False)


def recompute_dea_from_denoised(denoised_dif, signal: int) -> IndicatorSeries:
    """Rebuild the signal line and histogram on top of a smoothed DIF."""
    dn = np.asarray(denoised_dif, dtype=float)
    if dn.size == 0:
        raise ValueError("empty denoised DIF")
    return IndicatorSeries.from_dif_dea(dn, ema(dn, signal))


def _check_run(n: int, params: MacdParams, initial_capital: float) -> None:
    """Reject a run on fewer days than the slow period, or without capital."""
    if n < params.slow:
        raise DataError(f"series too short: {n} rows < slow period {params.slow}")
    if not (math.isfinite(initial_capital) and initial_capital > 0):
        raise ValueError(f"initial capital must be positive and finite, got {initial_capital}")


def _trade_log(closes: np.ndarray, signals: np.ndarray, forced: np.ndarray,
               capital: float) -> tuple[list[tuple], np.ndarray, tuple[int, float, float]]:
    """Trade field tuples of one row's round trips (as _round_trips makes
    and _walk trades them), the daily equity curve and the row's (wins,
    gross profit, gross loss).

    The cash before each buy is capital plus the cumulative sum of the
    pnls before it, the additions _walk makes, so equity[-1] == capital +
    sum of pnls exactly. The buy a row stops at is held to the end.
    """
    counts, buys, sells = _round_trips(signals[None], forced[None])
    quantity, pnl, made = _walk(closes, counts, buys, sells, capital)
    made = int(made[0])
    cash = capital + np.cumsum(np.append(0.0, pnl[:made]))  # before each buy, then at the end
    ends = sells[:made].tolist() + [len(closes)] * (made < len(buys))
    equity = np.empty(len(closes))
    flat_from = 0
    for buy, end, held, flat in zip(buys.tolist(), ends, quantity.tolist(), cash.tolist()):
        equity[flat_from:buy] = flat
        equity[buy:end] = 0.0 + held * closes[buy:end]
        flat_from = end
    equity[flat_from:] = cash[-1]
    buys, sells = buys[:made], sells[:made]
    forced_tag = forced[sells]
    tag = np.where(forced_tag != 0, forced_tag, signals[sells])
    trigger = np.where(tag != SIGNAL_SELL, "final_liquidation",
                       np.where(forced_tag != 0, "divergence", "cross"))
    trades = list(zip(buys.tolist(), sells.tolist(), closes[buys].tolist(),
                      closes[sells].tolist(), quantity[:made].tolist(), pnl[:made].tolist(),
                      trigger.tolist()))
    return trades, equity, tuple(tally[0] for tally in _tallies(counts, pnl))


def _tallies(counts: np.ndarray, pnl: np.ndarray) -> tuple[list[int], list[float], list[float]]:
    """Each row's wins, gross profit and gross loss, from its trades' pnls
    (row by row, counts[r] of row r's, in order): a row's gains, and its
    losses, are summed in trade order."""
    rows = len(counts)
    row = np.repeat(np.arange(rows), counts)
    won, lost = pnl > 0, pnl < 0
    wins = np.bincount(row[won], minlength=rows)
    gain_at = np.append(0, np.cumsum(wins)).tolist()
    loss_at = np.append(0, np.cumsum(np.bincount(row[lost], minlength=rows))).tolist()
    gains, losses = pnl[won], -pnl[lost]
    return (wins.tolist(), [float(gains[a:b].sum()) for a, b in zip(gain_at, gain_at[1:])],
            [float(losses[a:b].sum()) for a, b in zip(loss_at, loss_at[1:])])


def run_backtest(
    prices: PriceSeries | SeriesCache,
    params: MacdParams,
    mode: StrategyMode,
    initial_capital: float = DEFAULT_CAPITAL,
) -> TradeLog:
    """Run one strategy over a cleaned series (or a SeriesCache of one,
    to share its work with other runs) and log every execution.

    Buys invest the whole cash balance at that day's close; sells
    liquidate the whole position. Signals that would repeat the current
    state are ignored, as is a buy on the final day (it could never
    close). An open position at the end is sold at the last close and
    tagged final_liquidation. Divergence-forced actions take precedence
    over a crossover landing on the same day.
    """
    _check_run(len(prices), params, initial_capital)
    batch = BatchBacktest(prices, mode, initial_capital)
    lines = batch.prepare([params]).row(0)
    logged, equity, (wins, gross_profit, gross_loss) = _trade_log(
        batch.cache.closes, lines.signals, lines.forced, float(initial_capital))
    trades = [Trade(*trade) for trade in logged]
    return TradeLog(
        trades=trades,
        equity=equity,
        initial_capital=float(initial_capital),
        n_total=2 * len(trades),
        n_sells=len(trades),
        n_wins=wins,
        gross_profit=gross_profit,
        gross_loss=gross_loss,
        net=gross_profit - gross_loss,
        lines=lines,
    )


def _round_trips(signals: np.ndarray, forced: np.ndarray):
    """The trading rule: the round trips each row of a (rows x days)
    batch of tags makes, as each row's count and each trip's buy and
    sell day (int32, row by row, in order).

    All in, all out, each row starting flat. A day acts on its effective
    tag (forced where set, else the crossover) only when it differs from
    the last tag acted on. Last-day tags are left out: a buy there is
    ignored, and a sell there closes on the day the final liquidation
    of a position still open does. _walk cuts a row at the first buy
    its cash cannot pay for. This is the only place tags become trades;
    tests/oracles.py's backtest_naive is the day-by-day reference.
    """
    rows, n = signals.shape
    tags = np.where(forced != 0, forced, signals) if forced.any() else signals
    acted = tags != 0
    acted[:, -1] = False
    flat = np.flatnonzero(acted)
    tag = tags.ravel()[flat]
    row, day = np.divmod(flat, n)
    prev = np.empty_like(tag)
    prev[:1] = SIGNAL_SELL
    prev[1:] = tag[:-1]
    prev[1:][row[1:] != row[:-1]] = SIGNAL_SELL
    changed = tag != prev
    row, day, tag = row[changed], day[changed], tag[changed]
    # A row's changes alternate buy, sell, ...: a buy's sell is the next
    # change, unless that is the next row's first buy or there is none.
    buys = np.flatnonzero(tag == SIGNAL_BUY)
    after = buys + 1
    closed = np.append(tag, SIGNAL_BUY)[after] == SIGNAL_SELL
    sells = np.where(closed, np.append(day, n - 1)[after], n - 1)
    counts = np.bincount(row[buys], minlength=rows)
    return counts, day[buys].astype(np.int32), sells.astype(np.int32)


def _walk(closes: np.ndarray, counts: np.ndarray, buys: np.ndarray,
          sells: np.ndarray, capital: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each trade's quantity and pnl, and each row's number of trades
    made, for the round trips _round_trips returns.

    Each buy invests the row's cash, telescoped as capital plus the pnls
    so far. The recursion runs once per trade index k, across every row
    that has a k-th trade: ranked by trade count, those rows are a prefix
    of the ranking, and step k gathers their k-th trades from the
    row-major arrays and scatters the results back. A row stops trading
    at its first buy whose quantity is not positive (only rounding to a
    zero or negative cash brings that about): that buy's quantity is
    kept, and its pnl and those of the row's later trades are 0.
    """
    rows = len(counts)
    by_count = np.argsort(-counts, kind="stable")
    depth = int(counts.max(initial=0))
    trading = (rows - np.cumsum(np.bincount(counts, minlength=depth))[:depth]).tolist()
    first = np.cumsum(counts) - counts
    ranked_first = first[by_count]
    buy_price = closes[buys]
    quantity = np.empty(len(buys))
    pnl = closes[sells]
    pnl -= buy_price  # each trade's price gain, replaced by its pnl at its step
    cum = np.zeros(rows)
    made = counts.copy()
    for k, m in enumerate(trading):
        at = ranked_first[:m] + k  # the k-th trade of each of the m rows that have one
        held = (capital + cum[:m]) / buy_price[at]
        quantity[at] = held
        if not held.min() > 0.0:
            stuck = by_count[np.flatnonzero(~(held > 0.0))]
            made[stuck] = np.minimum(made[stuck], k)
        step = pnl[at]
        step *= held
        pnl[at] = step
        cum[:m] += step
    for r in np.flatnonzero(made < counts).tolist():
        pnl[first[r] + made[r]:first[r] + counts[r]] = 0.0  # trades never made
    return quantity, pnl, made


# A chunk of triples has as many rows as keep one (rows x days) float64
# array within this many bytes.
CHUNK_BYTES = 256 * 1024

# The least work, in rows x days, per process of a BatchBacktest.nets
# call. A forked child costs 3-5 ms (the fork, OpenBLAS's fork handlers,
# copy-on-write faults, the reply, the exit and reaping). On a 2-core
# x86_64 host (medians of 15, a fresh process each), the default GA's
# first generation of 496 triples took 88 -> 63 ms in two processes in
# divergence mode on 1,000 days, and 53 -> 41 ms in raw mode on 2,500;
# raw batches of 200 x 1,000 days (13 -> 17 ms) and 95 x 2,500 days
# (16 -> 19 ms) ran slower in two.
ROW_DAYS_PER_PROCESS = 200_000


def _ema_by_row(x: np.ndarray, periods: np.ndarray) -> np.ndarray:
    """EMA of each row of x with that row's period, one call per distinct period."""
    distinct = sorted(set(periods.tolist()))
    if len(distinct) == 1:
        return ema(x, distinct[0])
    out = np.empty_like(x)
    for period in distinct:
        rows = periods == period
        out[rows] = ema(x[rows], period)
    return out


class SeriesCache:
    """What one price series decides for every mode and parameter triple,
    each part computed the first time it is asked for and kept for the
    life of the cache: the closes, the EMA of each period, each (fast,
    slow) pair's wavelet trend of its DIF (one row of ceil(days / 16)
    values per pair), and the price half of divergence detection. It
    holds no mode, so run_backtest and BatchBacktest in every mode can
    share one cache per series."""

    def __init__(self, prices: PriceSeries):
        self.closes = np.asarray(prices.closes, dtype=float)
        self._emas: dict[int, np.ndarray] = {}
        # Each (fast, slow) pair's level-4 DIF trend (denoise_analysis).
        self._trends: dict[tuple[int, int], np.ndarray] = {}
        self._pairs = None

    def __len__(self) -> int:
        return len(self.closes)

    def ema(self, period: int) -> np.ndarray:
        if period not in self._emas:
            self._emas[period] = ema(self.closes, period)
        return self._emas[period]

    def smoothed(self, params: list[MacdParams], dif: np.ndarray) -> np.ndarray:
        """denoise_dif(dif), row for row, from each (fast, slow) pair's
        trend: the pairs not seen before are analysed in one call, and
        each distinct pair of the batch is synthesised once."""
        pairs = [(p.fast, p.slow) for p in params]
        rows = {}  # each distinct pair's first row
        for row, pair in enumerate(pairs):
            rows.setdefault(pair, row)
        new = [pair for pair in rows if pair not in self._trends]
        if new:
            trends = denoise_analysis(dif[[rows[pair] for pair in new]])
            self._trends.update(zip(new, trends))
        smoothed = denoise_synthesis(np.array([self._trends[pair] for pair in rows]),
                                     dif.shape[-1])
        if len(rows) == len(pairs):
            return smoothed
        at = {pair: i for i, pair in enumerate(rows)}
        return smoothed[[at[pair] for pair in pairs]]

    def pairs(self) -> dict:
        """divergence_pairs of the closes; none on a series too short for them."""
        if self._pairs is None:
            enough = len(self.closes) >= PROMINENCE_WINDOW + 2
            self._pairs = divergence_pairs(self.closes) if enough else {}
        return self._pairs


class BatchBacktest:
    """Trading lines and net profits of many parameter triples on one
    series and mode.

    The instance keeps only the mode, the capital and a SeriesCache:
    `prices` itself when it is one, else a new cache of it. So a GA's
    generations, and the modes of a series, share its EMAs, trends and
    divergence pairs. `prepare` turns triples into their trading lines
    and actions, one row each, through kernels that run along the day
    axis; run_backtest is its one-row case, so
    `nets(triples)[i] == run_backtest(...).net` exactly.
    """

    def __init__(self, prices: PriceSeries | SeriesCache, mode: StrategyMode,
                 initial_capital: float = DEFAULT_CAPITAL):
        self.cache = prices if isinstance(prices, SeriesCache) else SeriesCache(prices)
        self.mode = mode
        self.initial_capital = initial_capital

    def nets(self, triples) -> list[float]:
        """Net profit of each (fast, slow, signal) triple, in order.

        Raises what run_backtest would for the first triple it rejects,
        before any work is done. From ROW_DAYS_PER_PROCESS rows x days
        per process (`forks.processes`), the triples, grouped by (fast,
        slow) pair, run in blocks that `forks.map_pulled` hands to each
        process as it gets free: no pair is analysed in two processes,
        and a process on a busy CPU takes fewer blocks. Before forking,
        this process computes the EMAs and divergence pairs every block
        shares; after, it keeps the children's pair trends in its cache
        for later calls. A net depends on its own triple only, not on
        its chunk or process, so the nets are those of one process.
        """
        n = len(self.cache)
        params = []
        for genes in triples:
            params.append(MacdParams(*(int(g) for g in genes)))
            _check_run(n, params[-1], self.initial_capital)
        groups = {}  # each (fast, slow) pair's rows, in first-seen order
        for row, p in enumerate(params):
            groups.setdefault((p.fast, p.slow), []).append(row)
        count = forks.processes([len(rows) * n for rows in groups.values()],
                                ROW_DAYS_PER_PROCESS)
        if count == 1:
            return self._nets(params)
        cache = self.cache
        for period in {period for p in params for period in (p.fast, p.slow)}:
            cache.ema(period)
        if self.mode.divergence:
            cache.pairs()

        def block_nets(block):
            """The block's rows, their nets, the pairs it analysed and
            their trends, as bytes."""
            rows = [row for group in block for row in group]
            analysed = len(cache._trends)
            values = self._nets([params[row] for row in rows])
            new = list(cache._trends)[analysed:]
            return rows, values, new, np.array([cache._trends[pair] for pair in new]).tobytes()

        # Whole pairs by their least signal period, so that a block's
        # chunks span few periods (see _nets).
        groups = sorted(groups.values(), key=lambda rows: min(params[row].signal for row in rows))
        nets = [0.0] * len(params)
        for rows, values, new, trends in forks.map_pulled(block_nets, groups,
                                                          [len(rows) * n for rows in groups],
                                                          count):
            for row, value in zip(rows, values):
                nets[row] = value
            if new:  # this process already holds the trends of the blocks it ran
                for pair, trend in zip(new, np.frombuffer(trends).reshape(len(new), -1)):
                    cache._trends.setdefault(pair, trend)
        return nets

    def _nets(self, params: list[MacdParams]) -> list[float]:
        """`nets` of checked triples, in this process."""
        # Chunks of one signal period need fewer EMA calls; a net does not
        # depend on the chunk it is computed in.
        order = sorted(range(len(params)), key=lambda i: params[i].signal)
        rows = max(1, CHUNK_BYTES // (8 * max(len(self.cache), 1)))
        trips = []
        for start in range(0, len(order), rows):
            lines = self.prepare([params[i] for i in order[start:start + rows]])
            trips.append(_round_trips(lines.signals, lines.forced))
            del lines  # the chunk's dense lines go before the next chunk's are built
        if not trips:
            return []
        counts, buys, sells = map(np.concatenate, zip(*trips))
        del trips
        pnl = _walk(self.cache.closes, counts, buys, sells, float(self.initial_capital))[1]
        nets = [0.0] * len(params)
        for i, gain, loss in zip(order, *_tallies(counts, pnl)[1:]):
            nets[i] = gain - loss
        return nets

    def prepare(self, params: list[MacdParams]) -> SignalLines:
        """The mode's trading lines, crossover tags and divergence-forced
        tags for each triple, one row each.

        Unfiltered, the crossings of DIF and DEA are traded; filtered,
        those of the smoothed DIF and a DEA recomputed from it. With the
        divergence overlay, an event is confirmable one day after its extreme
        (peak detection needs the next close) and forces a tag on that
        day, which wins over the crossover's: a top forces a sell, a
        bottom a buy. Divergences are read off the raw histogram, not the
        smoothed one.
        """
        mode, cache = self.mode, self.cache
        signal = np.array([p.signal for p in params])
        dif = np.empty((len(params), len(cache)))
        for row, p in zip(dif, params):
            np.subtract(cache.ema(p.fast), cache.ema(p.slow), out=row)
        trade_dif = dif if mode.filter == "none" else cache.smoothed(params, dif)
        trade_dea = _ema_by_row(trade_dif, signal)
        signals = cross_signals(SimpleNamespace(dif=trade_dif, dea=trade_dea)).signals
        forced = np.zeros(signals.shape, dtype=np.int8)
        pairs = cache.pairs() if mode.divergence else {}
        if pairs:
            dea = trade_dea if trade_dif is dif else _ema_by_row(dif, signal)
            macd = 2.0 * (dif - dea)
        for kind, (cur, prev) in pairs.items():
            rows, j = np.nonzero(macd_disagrees(macd, kind, cur, prev))
            forced[rows, cur[j] + 1] = SIGNAL_SELL if kind == "top" else SIGNAL_BUY
        return SignalLines(dif, trade_dif, trade_dea, signals, forced)
