"""Execute the crossover trading rules over a price series.

Three strategy modes: trade the raw DIF/DEA crossings, trade crossings
of the wavelet-smoothed DIF against a signal line recomputed from it,
or additionally let divergence events force entries and exits. All-in
fills at the signal day's close, no fees, fractional quantities.

BatchBacktest.prepare is the one place a mode becomes trading lines
and actions, for many parameter triples on one series at once (a row
each), and _round_trips the one place actions become trades, the buy
and sell day of every round trip of a whole batch of rows. run_backtest
is the one-row case of both: it logs each trade's quantity, pnl and
trigger and the daily equity. For the optimizer, BatchBacktest.nets
computes only each row's net profit, for a whole batch at once. A
BatchBacktest keeps what a part of the triple decides (each period's
EMA, each (fast, slow) pair's wavelet trend) across its calls, so a GA
generation analyses only the pairs no earlier one has.
tests/oracles.py's backtest_naive, trading one day at a time, is the
reference both are tested against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

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
    RAW = "raw"
    DENOISED = "denoised"
    DENOISED_WITH_DIVERGENCE = "divergence"


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
               capital: float) -> tuple[list[tuple], np.ndarray]:
    """Trade field tuples of one row's round trips (as _round_trips
    makes them) and the daily equity curve.

    Each buy invests the cash, telescoped as capital plus the pnls so far
    so that equity[-1] == capital + sum of pnls holds exactly. At the
    first buy whose quantity is not positive (only rounding to a zero or
    negative cash brings that about), trading stops and that quantity is
    held to the end.
    """
    _, buys, sells = _round_trips(signals[None], forced[None])
    equity = np.empty(len(closes))
    trades = []
    cum_pnl = 0.0
    flat_from = 0
    for buy, sell, buy_price, sell_price, crossed, forced_tag in zip(
            buys.tolist(), sells.tolist(), closes[buys].tolist(), closes[sells].tolist(),
            signals[sells].tolist(), forced[sells].tolist()):
        equity[flat_from:buy] = capital + cum_pnl
        quantity = (capital + cum_pnl) / buy_price
        if not quantity > 0.0:
            equity[buy:] = 0.0 + quantity * closes[buy:]
            return trades, equity
        equity[buy:sell] = 0.0 + quantity * closes[buy:sell]
        pnl = quantity * (sell_price - buy_price)
        cum_pnl = cum_pnl + pnl
        if (forced_tag or crossed) != SIGNAL_SELL:
            trigger = "final_liquidation"
        else:
            trigger = "divergence" if forced_tag else "cross"
        trades.append((buy, sell, buy_price, sell_price, quantity, pnl, trigger))
        flat_from = sell
    equity[flat_from:] = capital + cum_pnl
    return trades, equity


def _tallies(pnls: list[float]) -> tuple[int, float, float, float]:
    """(wins, gross profit, gross loss, net) of the closed trades' pnls."""
    if not pnls:
        return 0, 0.0, 0.0, 0.0
    pnls = np.array(pnls)
    gross_profit = float(pnls[pnls > 0].sum())
    gross_loss = float(-pnls[pnls < 0].sum())
    return int((pnls > 0).sum()), gross_profit, gross_loss, gross_profit - gross_loss


def run_backtest(
    prices: PriceSeries,
    params: MacdParams,
    mode: StrategyMode,
    initial_capital: float = DEFAULT_CAPITAL,
) -> TradeLog:
    """Run one strategy over a cleaned series and log every execution.

    Buys invest the whole cash balance at that day's close; sells
    liquidate the whole position. Signals that would repeat the current
    state are ignored, as is a buy on the final day (it could never
    close). An open position at the end is sold at the last close and
    tagged final_liquidation. Divergence-forced actions take precedence
    over a crossover landing on the same day.
    """
    n = len(prices)
    _check_run(n, params, initial_capital)
    batch = BatchBacktest(prices, mode, initial_capital)
    lines = batch.prepare([params]).row(0)
    logged, equity = _trade_log(batch.closes, lines.signals, lines.forced,
                                float(initial_capital))
    trades = [Trade(*trade) for trade in logged]
    wins, gross_profit, gross_loss, net = _tallies([trade.pnl for trade in trades])
    return TradeLog(
        trades=trades,
        equity=equity,
        initial_capital=float(initial_capital),
        n_total=2 * len(trades),
        n_sells=len(trades),
        n_wins=wins,
        gross_profit=gross_profit,
        gross_loss=gross_loss,
        net=net,
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
    of a position still open does. The callers cut a row at the first
    buy its cash cannot pay for. This is the only place tags become
    trades; tests/oracles.py's backtest_naive is the day-by-day reference.
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


def _walk_nets(closes: np.ndarray, counts: np.ndarray, buys: np.ndarray,
               sells: np.ndarray, initial_capital: float) -> list[float]:
    """Net profit of each row's round trips (as _round_trips returns
    them), exactly as run_backtest computes it from _trade_log's pnls.

    The pnl recursion runs once per trade index k, across every row that
    has a k-th trade: ranked by trade count, those rows are a prefix of
    the ranking, and step k gathers their k-th trades from the row-major
    arrays and scatters the pnls back. A row stops trading, as _trade_log
    does, at the first buy whose quantity is not positive (only rounding
    to a zero or negative cash brings that about). Each row's gains and
    losses are then summed in trade order, as _tallies sums them.
    """
    rows = len(counts)
    by_count = np.argsort(-counts, kind="stable")
    depth = int(counts.max(initial=0))
    trading = (rows - np.cumsum(np.bincount(counts, minlength=depth))[:depth]).tolist()
    first = np.cumsum(counts) - counts
    ranked_first = first[by_count]
    buy_price = closes[buys]
    pnl = closes[sells]
    pnl -= buy_price  # each trade's price gain, replaced by its pnl at its step
    cum = np.zeros(rows)
    stop = counts.copy()
    for k, m in enumerate(trading):
        at = ranked_first[:m] + k  # the k-th trade of each of the m rows that have one
        quantity = (initial_capital + cum[:m]) / buy_price[at]
        if not quantity.min() > 0.0:
            stuck = by_count[np.flatnonzero(~(quantity > 0.0))]
            stop[stuck] = np.minimum(stop[stuck], k)
        step = pnl[at]
        step *= quantity
        pnl[at] = step
        cum[:m] += step
    del buy_price
    row = np.repeat(np.arange(rows, dtype=np.int32), counts)
    for r in np.flatnonzero(stop < counts).tolist():
        pnl[first[r] + stop[r]:first[r] + counts[r]] = 0.0  # trades never made
    # Each row's gains (and losses) in trade order, rows one after another.
    won, lost = pnl > 0, pnl < 0
    gains, losses = pnl[won], pnl[lost]
    gain_at = np.append(0, np.cumsum(np.bincount(row[won], minlength=rows))).tolist()
    loss_at = np.append(0, np.cumsum(np.bincount(row[lost], minlength=rows))).tolist()
    return [float(gains[gain_at[r]:gain_at[r + 1]].sum())
            - float(-losses[loss_at[r]:loss_at[r + 1]].sum()) for r in range(rows)]


# A chunk of triples has as many rows as keep one (rows x days) float64
# array within this many bytes.
CHUNK_BYTES = 256 * 1024


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


class BatchBacktest:
    """Trading lines and net profits of many parameter triples on one
    series and mode.

    What depends only on the prices (the EMA of each period, the price
    half of divergence detection) is computed once per series, and so is
    what depends only on the (fast, slow) pair: the wavelet trend of its
    DIF, one row of ceil(days / 16) values per pair, kept for the life of
    the instance. `prepare` turns triples into their trading lines and
    actions, one row each, through kernels that run along the day axis;
    run_backtest is its one-row case, so
    `nets(triples)[i] == run_backtest(...).net` exactly.
    """

    def __init__(self, prices: PriceSeries, mode: StrategyMode,
                 initial_capital: float = DEFAULT_CAPITAL):
        self.closes = np.asarray(prices.closes, dtype=float)
        self.mode = mode
        self.initial_capital = initial_capital
        self._emas: dict[int, np.ndarray] = {}
        # Each (fast, slow) pair's level-4 DIF trend (denoise_analysis).
        self._trends: dict[tuple[int, int], np.ndarray] = {}
        self._pairs = {}
        divergence = mode is StrategyMode.DENOISED_WITH_DIVERGENCE
        if divergence and len(self.closes) >= PROMINENCE_WINDOW + 2:
            self._pairs = divergence_pairs(self.closes)

    def _ema(self, period: int) -> np.ndarray:
        if period not in self._emas:
            self._emas[period] = ema(self.closes, period)
        return self._emas[period]

    def _smoothed(self, params: list[MacdParams], dif: np.ndarray) -> np.ndarray:
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

    def nets(self, triples) -> list[float]:
        """Net profit of each (fast, slow, signal) triple, in order.

        Raises what run_backtest would for the first triple it rejects.
        """
        n = len(self.closes)
        params = []
        for genes in triples:
            params.append(MacdParams(*(int(g) for g in genes)))
            _check_run(n, params[-1], self.initial_capital)
        # Chunks of one signal period need fewer EMA calls; a net does not
        # depend on the chunk it is computed in.
        order = sorted(range(len(params)), key=lambda i: params[i].signal)
        rows = max(1, CHUNK_BYTES // (8 * max(n, 1)))
        trips = []
        for start in range(0, len(order), rows):
            lines = self.prepare([params[i] for i in order[start:start + rows]])
            trips.append(_round_trips(lines.signals, lines.forced))
            del lines  # the chunk's dense lines go before the next chunk's are built
        if not trips:
            return []
        counts, buys, sells = map(np.concatenate, zip(*trips))
        del trips
        nets = [0.0] * len(params)
        walked = _walk_nets(self.closes, counts, buys, sells, float(self.initial_capital))
        for i, net in zip(order, walked):
            nets[i] = net
        return nets

    def prepare(self, params: list[MacdParams]) -> SignalLines:
        """The mode's trading lines, crossover tags and divergence-forced
        tags for each triple, one row each.

        Raw mode trades the crossings of DIF and DEA; the denoised modes
        those of the smoothed DIF and a DEA recomputed from it. With
        divergences, an event is confirmable one day after its extreme
        (peak detection needs the next close) and forces a tag on that
        day, which wins over the crossover's: a top forces a sell, a
        bottom a buy. Divergences are read off the raw histogram, not the
        smoothed one.
        """
        mode = self.mode
        signal = np.array([p.signal for p in params])
        dif = np.empty((len(params), len(self.closes)))
        for row, p in zip(dif, params):
            np.subtract(self._ema(p.fast), self._ema(p.slow), out=row)
        if mode is not StrategyMode.DENOISED:
            dea = _ema_by_row(dif, signal)
        if mode is StrategyMode.RAW:
            trade_dif, trade_dea = dif, dea
        else:
            trade_dif = self._smoothed(params, dif)
            trade_dea = _ema_by_row(trade_dif, signal)
        signals = cross_signals(SimpleNamespace(dif=trade_dif, dea=trade_dea)).signals
        forced = np.zeros(signals.shape, dtype=np.int8)
        if self._pairs:
            macd = 2.0 * (dif - dea)
        for kind, (cur, prev) in self._pairs.items():
            rows, j = np.nonzero(macd_disagrees(macd, kind, cur, prev))
            forced[rows, cur[j] + 1] = SIGNAL_SELL if kind == "top" else SIGNAL_BUY
        return SignalLines(dif, trade_dif, trade_dea, signals, forced)
