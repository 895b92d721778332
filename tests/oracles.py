"""Independent reference implementations the tests check the library against.

Everything here is deliberately written the slow, obvious way, without
importing any of the code paths it is used to verify. trade_inputs_naive
composes public building blocks one series at a time; what it verifies
is the batch pipeline that composes them for a strategy mode.
"""

import math


def ema_naive(values, n):
    """Plain-Python smoothing recurrence, seeded with the first value."""
    alpha = 2.0 / (n + 1.0)
    out = [float(values[0])]
    for v in values[1:]:
        out.append(alpha * float(v) + (1.0 - alpha) * out[-1])
    return out


def macd_naive(closes, fast, slow, signal):
    """(dif, dea, hist) computed through ema_naive only."""
    ema_fast = ema_naive(closes, fast)
    ema_slow = ema_naive(closes, slow)
    dif = [a - b for a, b in zip(ema_fast, ema_slow)]
    dea = ema_naive(dif, signal)
    hist = [2.0 * (a - b) for a, b in zip(dif, dea)]
    return dif, dea, hist


def cross_signals_naive(dif, dea):
    """Crossover tags by the definition: 1 on a day dif ends strictly
    above dea after being at or below it the day before, -1 mirrored, 0
    otherwise (day 0 always). A NaN compares false, so it tags nothing."""
    tags = [0]
    for t in range(1, len(dif)):
        if dif[t - 1] <= dea[t - 1] and dif[t] > dea[t]:
            tags.append(1)
        elif dif[t - 1] >= dea[t - 1] and dif[t] < dea[t]:
            tags.append(-1)
        else:
            tags.append(0)
    return tags


def max_drawdown_bruteforce(equity):
    """Largest percent decline over every (earlier, later) index pair."""
    n = len(equity)
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            worst = max(worst, (equity[i] - equity[j]) / equity[i])
    return worst * 100.0


def metrics_oracle(pnls, equity, initial, span_days, risk_free_pct=2.653, days_per_year=252):
    """All seven indicators, recomputed formula by formula.

    `pnls` are the per-trade profits of the closed round trips, `equity`
    the daily portfolio values. Returns a dict keyed like MetricsReport.
    """
    n_out = len(pnls)
    wins = [p for p in pnls if p > 0]
    n_win = len(wins)
    gross_profit = sum(wins)
    gross_loss = -sum(p for p in pnls if p < 0)

    win_rate = 100.0 * n_win / n_out if n_out else 0.0

    n_loss_slots = n_out - n_win
    if n_win == 0 or n_loss_slots == 0 or gross_loss == 0.0:
        odds_ratio = 0.0
    else:
        odds_ratio = 100.0 * (gross_profit / n_win) / (gross_loss / n_loss_slots)

    trade_frequency = 100.0 * (2 * n_out) / span_days

    final = equity[-1]
    total_return = final - initial
    annual_return = ((final / initial) ** (days_per_year / span_days) - 1.0) * 100.0

    sharpe = None
    if len(equity) >= 3:
        rets = [equity[i + 1] / equity[i] - 1.0 for i in range(len(equity) - 1)]
        mean = sum(rets) / len(rets)
        var = sum((r - mean) ** 2 for r in rets) / (len(rets) - 1)
        vol = math.sqrt(var)
        if vol > 0.0:
            sharpe = ((mean * days_per_year - risk_free_pct / 100.0)
                      / (vol * math.sqrt(days_per_year)) * 100.0)

    return {
        "win_rate": win_rate,
        "odds_ratio": odds_ratio,
        "trade_frequency": trade_frequency,
        "total_return": total_return,
        "annual_return": annual_return,
        "sharpe_ratio": sharpe,
        "max_drawdown": max_drawdown_bruteforce(list(equity)),
    }


def max_drawdown_allpairs_fast(equity):
    """Same all-pairs definition as max_drawdown_bruteforce, vectorized.

    Used where the O(n^2) pure-Python loop would dominate the test run;
    it still evaluates every (i, j) pair.
    """
    import numpy as np

    e = np.asarray(equity, dtype=float)
    i, j = np.triu_indices(e.size, k=1)
    declines = (e[i] - e[j]) / e[i]
    return max(0.0, float(declines.max())) * 100.0 if declines.size else 0.0


def backtest_naive(closes, signals, forced, capital):
    """The all-in/all-out trading rules, one day at a time.

    `signals` holds each day's crossover tag (1 buy, -1 sell, 0 none) and
    `forced` maps a day to the tag a divergence forces on it, which wins
    over the crossover. Returns (trades, equity): trades as
    (buy_index, sell_index, buy_price, sell_price, quantity, pnl, trigger)
    tuples, equity as the day-end portfolio values.
    """
    closes = [float(c) for c in closes]
    n = len(closes)
    trades, equity = [], []
    cash, quantity, cum_pnl = float(capital), 0.0, 0.0
    buy_index, buy_price = -1, 0.0

    def sell(day, trigger):
        nonlocal cash, quantity, cum_pnl
        pnl = quantity * (closes[day] - buy_price)
        cum_pnl = cum_pnl + pnl
        trades.append((buy_index, day, buy_price, closes[day], quantity, pnl, trigger))
        cash = capital + cum_pnl
        quantity = 0.0

    for t in range(n):
        action = forced.get(t, int(signals[t]))
        if action == 1 and quantity == 0.0 and t < n - 1:
            quantity = cash / closes[t]
            buy_index, buy_price = t, closes[t]
            cash = 0.0
        elif action == -1 and quantity > 0.0:
            sell(t, "divergence" if forced.get(t) == -1 else "cross")
        equity.append(cash + quantity * closes[t])
    if quantity > 0.0:
        sell(n - 1, "final_liquidation")
        equity[-1] = cash
    return trades, equity


def trade_inputs_naive(prices, params, mode):
    """The lines, crossover tags and divergence-forced actions of one run,
    composed in 1-D from the public functions.

    Raw mode trades on the conventional indicators; the denoised modes on
    the smoothed DIF with a signal line recomputed from it. In divergence
    mode each event executes one day after its extreme (a top forces a
    sell, a bottom a buy), read off the raw histogram; a series shorter
    than the prominence window plus two days has no events. Returns
    (raw indicators, trading indicators, signals, {day: forced tag}).
    """
    from macdlab import (compute_indicators, cross_signals, denoise_dif, detect_divergences,
                         recompute_dea_from_denoised)

    raw_ind = compute_indicators(prices, params)
    trade_ind = raw_ind
    if mode.filter != "none":
        trade_ind = recompute_dea_from_denoised(denoise_dif(raw_ind.dif), params.signal)
    forced = {}
    if mode.divergence and len(prices) >= 15 + 2:
        for event in detect_divergences(prices, raw_ind):
            forced[event.current_extreme_index + 1] = -1 if event.kind == "top" else 1
    return raw_ind, trade_ind, cross_signals(trade_ind).signals, forced


def divergences_naive(closes, macd, window=15, lookback=60):
    """(kind, current, previous) of every divergence, by the definition.

    An extreme qualifies when it is a strict local peak (trough) above
    (below) every close of the `window` days before it; it pairs with the
    most recent earlier qualifying extreme of its kind at most `lookback`
    days back, and is a divergence when price makes a higher high (lower
    low) while the histogram makes a lower high (higher low).
    """
    closes = [float(c) for c in closes]
    out = []
    for kind in ("top", "bottom"):
        sign = 1.0 if kind == "top" else -1.0
        qualifying = [
            t for t in range(window, len(closes) - 1)
            if sign * closes[t] > sign * closes[t - 1] and sign * closes[t] > sign * closes[t + 1]
            and all(sign * closes[t] > sign * c for c in closes[t - window:t])
        ]
        for i in range(1, len(qualifying)):
            t, prev = qualifying[i], qualifying[i - 1]
            if t - prev <= lookback and sign * closes[t] > sign * closes[prev] \
                    and sign * macd[t] < sign * macd[prev]:
                out.append((kind, t, prev))
    return sorted(out, key=lambda e: e[1])


def denoise_naive(values, lowpass, levels=4):
    """Level-`levels` periodized wavelet approximation, scalar loops only.

    Edge-pads to a multiple of 2**levels; analysis keeps only the lowpass
    band, approx[t] = sum_k h[k] * x[(2t + k) mod n]; synthesis adds
    h[k] * approx[t] into x[(2t + k) mod 2n]. Every sum runs over k in
    increasing order, starting from 0.0.
    """
    h = [float(c) for c in lowpass]
    x = [float(v) for v in values]
    n = len(x)
    block = 2 ** levels
    x = x + [x[-1]] * (-n % block)
    for _ in range(levels):
        m = len(x)
        approx = []
        for t in range(m // 2):
            acc = 0.0
            for k, c in enumerate(h):
                acc += c * x[(2 * t + k) % m]
            approx.append(acc)
        x = approx
    for _ in range(levels):
        m = 2 * len(x)
        out = [0.0] * m
        for k, c in enumerate(h):
            for t, a in enumerate(x):
                out[(2 * t + k) % m] += c * a
        x = out
    return x[:n]


def fmt_cell(value):
    """A CLI CSV cell: full-precision floats, 1/0 bools, None as undefined."""
    import numpy as np

    if value is None:
        return "undefined"
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv_rows(path, header, rows):
    """A CLI CSV artifact written one row at a time through csv.writer."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_cell(cell) for cell in row])


def load_csv_naive(path):
    """[(code, dates, closes)] per instrument, sorted by code then date.

    One row at a time: blank rows skipped, every cell stripped, every
    date parsed. Raises ValueError with the message the library's
    DataError carries (a repeated date fails the increasing-dates check).
    A file that is not UTF-8 is read up to the line of its first bad
    byte, and fails there unless a row before it does.
    """
    import csv
    import io
    from datetime import date

    with open(path, "rb") as fh:
        data = fh.read().removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark
    try:
        decoded, undecodable = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        head = data[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        decoded = head[:head.rfind(b"\n") + 1].decode("utf-8")
        line = head.count(b"\n") + 1
        undecodable = ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8")
    reader = csv.reader(io.StringIO(decoded, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            if undecodable:
                raise undecodable from None
            raise ValueError(f"{path}: empty file, header row required") from None
        names = [name.strip().lower() for name in header]
        missing = [c for c in ("code", "date", "close") if c not in names]
        if missing:
            raise ValueError(f"{path}: missing required column(s): {', '.join(missing)}")
        twice = [c for c in ("code", "date", "close") if names.count(c) > 1]
        if twice:
            raise ValueError(f"{path}: required column(s) named more than once: "
                             f"{', '.join(twice)}")
        positions = {name: i for i, name in enumerate(names)}
        i_code, i_date, i_close = positions["code"], positions["date"], positions["close"]
        rows = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(i_code, i_date, i_close):
                raise ValueError(f"{path}:{lineno}: too few columns")
            code = row[i_code].strip()
            if not code:
                raise ValueError(f"{path}:{lineno}: empty instrument code")
            text = row[i_date].strip()
            try:
                if not (len(text) == 10 and text[4] == text[7] == "-"
                        and all(c in "0123456789" for c in text[:4] + text[5:7] + text[8:])):
                    raise ValueError("not YYYY-MM-DD")
                day = date.fromisoformat(text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad date {row[i_date]!r}: {exc}") from None
            raw_close = row[i_close].strip()
            if not raw_close:
                close = math.nan
            else:
                try:
                    close = float(raw_close)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad close {raw_close!r}") from None
            rows.setdefault(code, []).append((day, close))
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if undecodable:
        raise undecodable
    out = []
    for code in sorted(rows):
        pairs = sorted(rows[code], key=lambda p: p[0])
        for i in range(1, len(pairs)):
            if pairs[i][0] <= pairs[i - 1][0]:
                raise ValueError(
                    f"instrument {code!r}: dates not strictly increasing at {pairs[i][0]}")
        out.append((code, [p[0] for p in pairs], [p[1] for p in pairs]))
    return out


def optimize_naive(cfg, fitness_fn):
    """The GA one individual at a time: a list of gene tuples per
    generation, each operator a Python loop over them.

    Makes exactly the draws optimize makes, from the same per-(seed,
    generation, operator) substreams, and calls fitness_fn once per new
    triple in first-seen order. Returns a dict: best_genes, best_fitness,
    generations, converged, and history as (generation, best_fitness,
    mean_fitness, best_genes) tuples.
    """
    import numpy as np

    (lo0, hi0), (lo1, hi1), _ = cfg.bounds
    lows = np.array([b[0] for b in cfg.bounds])
    highs = np.array([b[1] for b in cfg.bounds])
    n = cfg.population_size

    def substream(generation, operator):
        return np.random.default_rng(np.random.SeedSequence([cfg.seed, generation, operator]))

    def repair(genes):
        x, y, z = genes
        if x < y:
            return genes
        x = min(x, hi0)
        return (x, min(max(y, x + 1, lo1), hi1), z)

    def select(population, fitness, rng):
        f = np.asarray(fitness, dtype=float)
        exp_v = np.exp(f - f.max())
        n_elite = max(1, n // 10)
        chosen = rng.choice(n, size=n - n_elite, replace=True, p=exp_v / exp_v.sum())
        elite_idx = np.argsort(fitness, kind="stable")[-n_elite:]
        return [population[i] for i in chosen] + [population[i] for i in elite_idx]

    def crossover(population, rng):
        out = list(population)
        for i in range(0, len(out) - 1, 2):
            if rng.random() < cfg.crossover_rate:
                point = int(rng.integers(1, 3))
                a, b = out[i], out[i + 1]
                out[i], out[i + 1] = a[:point] + b[point:], b[:point] + a[point:]
        return out

    def mutate(population, rng):
        genes = np.array(population, dtype=int)
        hit = rng.random(genes.shape) < cfg.mutation_rate
        draws = rng.integers(lows, highs + 1, size=genes.shape)
        return [tuple(row) for row in np.where(hit, draws, genes).tolist()]

    cache, history = {}, []
    for generation in range(cfg.max_generations + 1):
        if generation == 0:
            raw = substream(0, 0).integers(lows, highs + 1, size=(n, 3))
            population = [tuple(int(g) for g in row) for row in raw]
        else:
            population = select(population, fitness, substream(generation, 1))
            population = crossover(population, substream(generation, 2))
            population = mutate(population, substream(generation, 3))
        population = [repair(genes) for genes in population]
        for genes in population:
            if genes not in cache:
                cache[genes] = fitness_fn(genes)
        fitness = [cache[genes] for genes in population]
        best_i = int(np.argmax(fitness))
        if generation == 0 or fitness[best_i] > best_fitness:
            best_genes, best_fitness, stale = population[best_i], fitness[best_i], 0
        else:
            stale += 1
        history.append((generation, best_fitness, float(np.mean(fitness)), best_genes))
        if stale >= cfg.convergence_patience:
            break
    return {"best_genes": best_genes, "best_fitness": best_fitness, "generations": generation,
            "converged": stale >= cfg.convergence_patience, "history": history}
