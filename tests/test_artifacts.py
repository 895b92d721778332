"""Byte parity of the CLI's column-wise CSV artifacts with the row-wise
csv.writer reference in oracles.write_csv_rows, and of its JSON
artifacts with records whose keys are written out here."""

import json
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from macdlab import (
    GaConfig,
    MacdParams,
    StrategyMode,
    clean,
    cli,
    compute_indicators,
    cross_signals,
    denoise_dif,
    detect_divergences,
    detect_oscillation,
    load_csv,
    optimize,
    run_backtest,
)
from macdlab.backtest import recompute_dea_from_denoised
from macdlab.cli import _write_csv, main
from macdlab.metrics import REPORT_COLUMNS, RiskConfig, compute_metrics

from conftest import random_walk_closes
from oracles import write_csv_rows
from test_cli import synthetic_rows, write_csv

PARAMS = MacdParams()


def expected_bytes(tmp_path, header, rows):
    path = tmp_path / "expected.csv"
    write_csv_rows(path, header, rows)
    return path.read_bytes()


def cleaned_series(data):
    return [clean(s) for s in load_csv(data)]


def iso(series):
    return [d.isoformat() for d in series.dates]


def chart_rows(series, mode):
    """The chart rows as the CLI used to build them, day by day."""
    ind = compute_indicators(series, PARAMS)
    smooth = denoise_dif(ind.dif)
    trade = ind if mode is StrategyMode.RAW else recompute_dea_from_denoised(smooth, PARAMS.signal)
    signals = cross_signals(trade).signals
    return [[d, series.closes[i], ind.dif[i], smooth[i], trade.dea[i], int(signals[i])]
            for i, d in enumerate(iso(series))]


def check_backtest(data, tmp_path, mode):
    out = tmp_path / f"bt_{mode.value}"
    assert main(["backtest", "--data", str(data), "--out", str(out), "--mode", mode.value]) == 0
    signals = set()
    for series in cleaned_series(data):
        log = run_backtest(series, PARAMS, mode)
        assert (out / f"equity_{series.code}.csv").read_bytes() == expected_bytes(
            tmp_path, ["date", "equity"], zip(iso(series), log.equity))
        rows = chart_rows(series, mode)
        signals |= {row[-1] for row in rows}
        assert (out / f"chart_{series.code}.csv").read_bytes() == expected_bytes(
            tmp_path, ["date", "close", "dif", "dif_denoised", "dea", "signal"], rows)
    return signals


def check_denoise_and_analyze(data, tmp_path):
    # Each command gets its own --out: a run deletes the files the
    # previous manifest in its directory listed.
    out, dn = tmp_path / "an", tmp_path / "dn"
    assert main(["denoise", "--data", str(data), "--out", str(dn)]) == 0
    assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
    osc_cells = set()
    for series in cleaned_series(data):
        ind = compute_indicators(series, PARAMS)
        assert (dn / f"denoise_{series.code}.csv").read_bytes() == expected_bytes(
            tmp_path, ["date", "dif", "dif_denoised"],
            zip(iso(series), ind.dif, denoise_dif(ind.dif)))
        osc = detect_oscillation(series)
        rows = list(zip(iso(series), series.closes, osc.mean10, osc.inband, osc.pairflag,
                        osc.mask))
        osc_cells |= {(np.isnan(r[2]), bool(r[3]), bool(r[5])) for r in rows}
        assert (out / f"oscillation_{series.code}.csv").read_bytes() == expected_bytes(
            tmp_path, ["date", "close", "mean10", "inband", "pairflag", "mask"], rows)
    return osc_cells


class TestPerDayArtifacts:
    def test_backtest_all_modes(self, tmp_path):
        rng = np.random.default_rng(99)
        data = write_csv(tmp_path / "p.csv",
                         synthetic_rows("AAA.X", random_walk_closes(rng, 220))
                         + synthetic_rows("BBB", random_walk_closes(rng, 300, vol=0.03)))
        for mode in StrategyMode:
            assert check_backtest(data, tmp_path, mode) == {-1, 0, 1}

    def test_denoise_and_analyze(self, tmp_path):
        rng = np.random.default_rng(99)
        data = write_csv(tmp_path / "p.csv", synthetic_rows("AAA.X", random_walk_closes(rng, 220)))
        cells = check_denoise_and_analyze(data, tmp_path)
        assert any(nan for nan, _, _ in cells) and any(not nan for nan, _, _ in cells)
        assert {inband for _, inband, _ in cells} == {True, False}
        assert {mask for _, _, mask in cells} == {True, False}

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=30, max_size=120))
    def test_generated_series(self, tmp_path, closes):
        data = write_csv(tmp_path / "g.csv", synthetic_rows("G", closes))
        check_backtest(data, tmp_path, StrategyMode.DENOISED_WITH_DIVERGENCE)
        check_denoise_and_analyze(data, tmp_path)


TEXT = st.text(alphabet=st.sampled_from('ab ,"\r\n\t;'), max_size=6)
CELL = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
)


class TestWriter:
    @given(st.integers(0, 12).flatmap(lambda n: st.tuples(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=n, max_size=n),
        st.lists(st.integers(-1, 1), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.lists(CELL, min_size=n, max_size=n),
        st.lists(TEXT, min_size=n, max_size=n),
    )))
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("block_rows", [cli.CSV_BLOCK_ROWS, 5, 1])
    def test_columns_match_rows(self, tmp_path, monkeypatch, block_rows, columns):
        """Also when a file is written in blocks of a few rows: a block's
        columns are quoted only if one of its cells needs it."""
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        floats, ints, bools, mixed, text = columns
        header = ["f", "s", "b", 'mixed, "quoted"', "t"]
        arrays = [np.array(floats, dtype=float), np.array(ints, dtype=np.int8),
                  np.array(bools, dtype=bool), mixed, text]
        _write_csv(tmp_path / "got.csv", header, arrays)
        assert (tmp_path / "got.csv").read_bytes() == expected_bytes(
            tmp_path, header, zip(*arrays))


ODD_CODES = ['A,"B', "C\rD", "E\nF", "G"]


def odd_code_file(tmp_path):
    rng = np.random.default_rng(3)
    start = date(2014, 1, 2)
    lines = ["code,date,close\n"]
    for code in ODD_CODES:
        quoted = '"' + code.replace('"', '""') + '"'
        closes = random_walk_closes(rng, 80) if code != "G" else [0.0] * 60
        lines += [f"{quoted},{(start + timedelta(days=i)).isoformat()},{float(c)!r}\n"
                  for i, c in enumerate(closes)]
    path = tmp_path / "odd.csv"
    path.write_text("".join(lines), encoding="utf-8", newline="")
    return path


class TestQuotedCells:
    def test_compare_with_comma_and_quote_in_code(self, tmp_path):
        data = odd_code_file(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", "--data", str(data), "--out", str(out)]) == 0
        rows = []
        for series in load_csv(data):
            if series.code == "G":
                rows += [["G", m.value] + [""] * len(REPORT_COLUMNS) + ["unusable"]
                         for m in StrategyMode]
                continue
            for mode in StrategyMode:
                log = run_backtest(clean(series), PARAMS, mode)
                report = compute_metrics(log, len(series), RiskConfig())
                rows.append([series.code, mode.value]
                            + [getattr(report, c) for c in REPORT_COLUMNS] + ["ok"])
        got = (out / "comparison.csv").read_bytes()
        assert b'"A,""B"' in got
        assert got == expected_bytes(tmp_path, ["name", "mode", *REPORT_COLUMNS, "status"], rows)

    def test_ingest_summary(self, tmp_path):
        data = odd_code_file(tmp_path)
        out = tmp_path / "ing"
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 0
        rows = [[code, 80, 80, 0, "ok"] for code in sorted(ODD_CODES) if code != "G"]
        rows.append(["G", 60, "", 60, "unusable"])
        rows.sort(key=lambda r: r[0])
        assert (out / "instruments.csv").read_bytes() == expected_bytes(
            tmp_path, ["code", "rows", "rows_kept", "rows_dropped", "status"], rows)
        usable = [clean(s) for s in load_csv(data) if s.code != "G"]
        cleaned = [[s.code, day, close] for s in usable
                   for day, close in zip(iso(s), s.closes.tolist())]
        assert (out / "cleaned.csv").read_bytes() == expected_bytes(
            tmp_path, ["code", "date", "close"], cleaned)

    def test_ingest_with_no_usable_instrument(self, tmp_path):
        data = write_csv(tmp_path / "bad.csv", synthetic_rows("BAD", [0.0] * 60))
        out = tmp_path / "ing"
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 0
        assert (out / "cleaned.csv").read_bytes() == b"code,date,close\n"

    def test_optimize_tables(self, tmp_path):
        rng = np.random.default_rng(99)
        data = write_csv(tmp_path / "p.csv", synthetic_rows("AAA.X", random_walk_closes(rng, 220)))
        out = tmp_path / "opt"
        assert main(["optimize", "--data", str(data), "--out", str(out),
                     "--pop", "24", "--max-gen", "4", "--seed", "11"]) == 0
        series = cleaned_series(data)[0]
        cfg = GaConfig(population_size=24, max_generations=4, seed=11)
        result = optimize(series, StrategyMode.RAW, cfg)
        assert (out / "history.csv").read_bytes() == expected_bytes(
            tmp_path, ["generation", "best_fitness", "mean_fitness",
                       "best_fast", "best_slow", "best_signal"],
            [[g.generation, g.best_fitness, g.mean_fitness, *g.best_genes]
             for g in result.history])
        rows = []
        for label, params in (("default", PARAMS), ("optimized", MacdParams(*result.best_genes))):
            report = compute_metrics(run_backtest(series, params, StrategyMode.RAW),
                                     len(series), RiskConfig())
            rows.append([label, "{},{},{}".format(*params.as_tuple())]
                        + [getattr(report, c) for c in REPORT_COLUMNS])
        got = (out / "comparison.csv").read_bytes()
        assert b'"12,26,9"' in got
        assert got == expected_bytes(tmp_path, ["run", "params", *REPORT_COLUMNS], rows)


def json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def two_instrument_data(tmp_path):
    rng = np.random.default_rng(99)
    return write_csv(tmp_path / "p.csv",
                     synthetic_rows("AAA.X", random_walk_closes(rng, 220))
                     + synthetic_rows("BBB", random_walk_closes(rng, 300, vol=0.03)))


class TestJsonArtifacts:
    def test_backtest_metrics_and_trades(self, tmp_path):
        data = two_instrument_data(tmp_path)
        triggers = set()
        for mode in StrategyMode:
            out = tmp_path / mode.value
            assert main(["backtest", "--data", str(data), "--out", str(out),
                         "--mode", mode.value]) == 0
            for series in cleaned_series(data):
                log = run_backtest(series, PARAMS, mode)
                report = compute_metrics(log, series.span_days, RiskConfig())
                metrics = {name: getattr(report, name) for name in (
                    "win_rate", "odds_ratio", "trade_frequency", "total_return",
                    "annual_return", "sharpe_ratio", "max_drawdown")}
                assert (out / f"metrics_{series.code}.json").read_bytes() == json_bytes(metrics)
                trades = [{
                    "buy_index": t.buy_index,
                    "sell_index": t.sell_index,
                    "buy_date": series.dates[t.buy_index].isoformat(),
                    "sell_date": series.dates[t.sell_index].isoformat(),
                    "buy_price": t.buy_price,
                    "sell_price": t.sell_price,
                    "quantity": t.quantity,
                    "pnl": t.pnl,
                    "trigger": t.trigger,
                } for t in log.trades]
                triggers |= {t["trigger"] for t in trades}
                assert (out / f"trades_{series.code}.json").read_bytes() == json_bytes(trades)
        assert {"cross", "final_liquidation"} <= triggers

    def test_analyze_divergences(self, tmp_path):
        data = two_instrument_data(tmp_path)
        out = tmp_path / "an"
        assert main(["analyze", "--data", str(data), "--out", str(out)]) == 0
        kinds = set()
        for series in cleaned_series(data):
            events = [{
                "kind": e.kind,
                "current_extreme_index": e.current_extreme_index,
                "previous_extreme_index": e.previous_extreme_index,
                "current_date": series.dates[e.current_extreme_index].isoformat(),
                "previous_date": series.dates[e.previous_extreme_index].isoformat(),
                "price_at_extremes": list(e.price_at_extremes),
                "macd_at_extremes": list(e.macd_at_extremes),
            } for e in detect_divergences(series, compute_indicators(series, PARAMS))]
            kinds |= {e["kind"] for e in events}
            assert (out / f"divergences_{series.code}.json").read_bytes() == json_bytes(events)
        assert kinds == {"top", "bottom"}
