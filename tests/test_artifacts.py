"""Byte parity of the CLI's column-wise CSV artifacts with the row-wise
csv.writer reference in oracles.write_csv_rows, and of its JSON
artifacts with records whose keys are written out here."""

import json
import math
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
    trade = ind if mode.filter == "none" else recompute_dea_from_denoised(smooth, PARAMS.signal)
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


def any_bits(width: int):
    """Any bit pattern of a float `width` bits wide; about half the draws
    are nans, of either sign and any payload, which plain bit draws
    would almost never reach."""
    fraction = {64: 52, 32: 23}[width]
    nan = (2**(width - fraction - 1) - 1) << fraction
    return st.one_of(st.integers(0, 2**width - 1),
                     st.integers(nan + 1, nan + 2**fraction - 1).flatmap(
                         lambda bits: st.sampled_from([bits, bits | 1 << (width - 1)])))


class TestText:
    """`_text` against `repr(float(v))` and `str(v)`, cell by cell."""

    @given(st.lists(st.tuples(
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25, 1e-300]),
        st.integers(1, 5)), max_size=12), st.sampled_from([np.float64, np.float32]))
    def test_float_runs(self, runs, dtype):
        column = np.array([v for v, n in runs for _ in range(n)], dtype=dtype)
        assert cli._text(column) == [repr(float(v)) for v in column]

    def test_float_runs_of_nan_payloads_and_signed_zeros(self):
        bits = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000,
                         0x8000000000000000, 0], dtype=np.uint64)
        column = np.repeat(bits.view(np.float64), 3)
        assert cli._text(column) == ["nan"] * 9 + ["-0.0"] * 3 + ["0.0"] * 3
        assert cli._text(column[::2]) == [repr(float(v)) for v in column[::2]]

    @given(st.lists(any_bits(64), max_size=20))
    def test_any_float64_bits(self, bits):
        """Every bit pattern, nan payloads, subnormals and infinities included."""
        column = np.array(bits, dtype=np.uint64).view(np.float64)
        assert cli._text(column) == [repr(float(v)) for v in column]

    @given(st.lists(any_bits(32), max_size=20))
    def test_any_float32_bits(self, bits):
        """Signalling nans too: the widened column raises no warning."""
        column = np.array(bits, dtype=np.uint32).view(np.float32)
        assert cli._text(column) == [repr(float(v)) for v in column]

    # Each side of the two cut-offs where repr switches to an exponent,
    # zeros, and the ends of the float range.
    EDGE_CELLS = [np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, 0.0, -0.0,
                  5e-324, -5e-324, np.finfo(np.float64).max, -np.finfo(np.float64).max,
                  math.inf, -math.inf, math.nan, 1e-5, 0.1, 123.456, 1e15]

    @pytest.mark.parametrize("cell", EDGE_CELLS + [-v for v in EDGE_CELLS[:4]])
    def test_edge_cells(self, cell):
        assert cli._text(np.array([cell])) == [repr(float(cell))]
        column = np.array([1.5, cell, 2.5])
        assert cli._text(column) == ["1.5", repr(float(cell)), "2.5"]

    def test_edge_column(self):
        column = np.array(self.EDGE_CELLS)
        assert cli._text(column) == [repr(float(v)) for v in column]
        with np.errstate(over="ignore"):  # float64's max rounds to float32's inf
            narrow = column.astype(np.float32)
        assert cli._text(narrow) == [repr(float(v)) for v in narrow]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_empty_and_one_cell(self, dtype):
        assert cli._text(np.array([], dtype=dtype)) == []
        assert cli._text(np.array([0.1], dtype=dtype)) == [repr(float(dtype(0.1)))]

    def test_in_range_cells_skip_repr(self, monkeypatch):
        """orjson writes every cell of a column without an exponent or a nan."""
        column = np.array([1e-4, -0.25, 0.0, -0.0, 50.123, np.nextafter(1e16, 0), 1e15])
        expected = [repr(v) for v in column.tolist()]
        monkeypatch.setattr(cli, "repr", None, raising=False)
        assert cli._text(column) == expected

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8])
    def test_every_byte_value(self, dtype):
        info = np.iinfo(dtype)
        column = np.arange(info.min, info.max + 1).astype(dtype)
        assert cli._text(column) == [str(v) for v in range(info.min, info.max + 1)]
        assert cli._text(column[::-3]) == [str(int(v)) for v in column[::-3]]

    @given(st.sampled_from([np.bool_, np.int8, np.int16, np.int64, np.uint64]).flatmap(
        lambda dtype: st.tuples(
            st.just(dtype),
            st.lists(st.booleans() if dtype is np.bool_ else
                     st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max), max_size=12),
            st.sampled_from("<>"), st.sampled_from([1, 2, -1, -3]))))
    def test_int_and_bool_columns(self, drawn):
        """Either byte order, and strided slices: `str` of each int, and
        "1"/"0" for a bool."""
        dtype, values, order, step = drawn
        column = np.array(values, np.dtype(dtype).newbyteorder(order))[::step]
        assert cli._text(column) == [("1" if v else "0") if type(v) is bool else str(v)
                                     for v in column.tolist()]

    @pytest.mark.parametrize("dtype", [">f8", "<f8", ">f4", "<f4", ">f2"])
    def test_float_columns_of_either_byte_order(self, dtype):
        cells = [1e-5, 0.1, -7.25, 0.0, -0.0, math.inf, -math.inf, math.nan, 3e-7, 1234.5]
        column = np.array(cells, dtype)[::-2]
        assert cli._text(column) == [repr(float(v)) for v in column]


JSON_TEXT = st.text(alphabet=st.sampled_from('{},"\n\\:[] aé€\u2028\x00\t'), max_size=6)
JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), JSON_TEXT,
    st.floats(allow_nan=True, allow_infinity=True),
)
# What orjson writes alike: printable-ASCII text, ints of 64 bits, and
# floats with neither an exponent nor a nan in their repr.
PLAIN_TEXT = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=6)
PLAIN_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**63, 2**64 - 1), PLAIN_TEXT, st.just(0.0),
    st.floats(1e-4, 1e16, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
)
# And what it may not: text with control characters, DEL or non-ASCII,
# ints and floats either side of each end of its ranges, and floats of
# any bit pattern.
ODD_SCALAR = st.one_of(
    JSON_SCALAR, st.text(alphabet=st.sampled_from('a~\x7f\x1f\x00\n"\\é\U0001f600'), max_size=4),
    st.sampled_from([-2**63 - 1, -2**63, 2**64 - 1, 2**64, 1e-4, float(np.nextafter(1e-4, 0)),
                     1e16, float(np.nextafter(1e16, 0)), -0.0, 5e-324]),
    any_bits(64).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)


def nested(scalars, keys):
    """Records of `keys` holding `scalars`, lists, tuples and records."""
    return st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4)), max_leaves=12)


RECORD_LISTS = st.one_of(
    st.lists(st.dictionaries(PLAIN_TEXT, nested(PLAIN_SCALAR, PLAIN_TEXT), max_size=6),
             max_size=5),
    st.lists(nested(st.one_of(PLAIN_SCALAR, ODD_SCALAR),
                    st.one_of(PLAIN_TEXT, JSON_TEXT)), max_size=5),
    # Non-str keys, all of one type (json.dumps sorts them) or mixed (it
    # cannot).
    st.lists(st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans()),
                             PLAIN_SCALAR, max_size=3), max_size=3),
    st.lists(st.dictionaries(st.integers(), PLAIN_SCALAR, max_size=3), max_size=3),
)


class TestJsonText:
    """`_json_text` against `json.dumps(obj, indent=2, sort_keys=True)`."""

    @given(st.lists(st.dictionaries(JSON_TEXT, JSON_SCALAR, min_size=1, max_size=6),
                    min_size=1, max_size=5))
    def test_flat_records(self, records):
        assert cli._json_text(records) == json.dumps(records, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [
        [],
        [{}],
        [{"a": 1}, {}],
        [{"a": [1.0, 2.0]}],
        [{"a": {"b": None}}],
        [{"a": (1, 2)}],
        [{"a": np.float64(1.5)}],
        [{"a": np.int64(2)}],
        [{1: "x"}],
        [{"a": 1}, {None: 2}],
        [{"b": 1.5, "a": "x"}, {"a": None, "b": 2**64}],
        {"a": 1.5, "b": "x"},
        ["a", 1],
        [[{"a": 1}]],
        ({"a": 1},),
    ])
    def test_other_shapes(self, obj):
        try:
            expected = json.dumps(obj, indent=2, sort_keys=True)
        except TypeError as exc:  # a numpy int is no JSON value
            with pytest.raises(TypeError, match=str(exc)):
                cli._json_text(obj)
            return
        assert cli._json_text(obj) == expected

    @given(RECORD_LISTS)
    def test_record_lists(self, records):
        try:
            expected = json.dumps(records, indent=2, sort_keys=True)
        except TypeError as exc:  # keys of several types cannot be sorted
            with pytest.raises(TypeError, match=str(exc)):
                cli._json_text(records)
            return
        assert cli._json_text(records) == expected

    @pytest.mark.parametrize("odd", [
        "é", "\u2028", "\x7f", "\x1f", "\x00", "\n", "\t", 2**64, -2**63 - 1, 1e16, -1e16,
        float(np.nextafter(1e-4, 0)), 1e-5, 5e-324, math.nan, math.inf, -math.inf,
        {1: "x"}, {None: 1}, np.float64(1.5),
    ])
    def test_one_odd_leaf(self, odd):
        """Anywhere in a record list orjson would otherwise write, one
        value it writes otherwise (or not at all) sends the list to
        json.dumps."""
        for records in ([{"a": 1.5, "b": odd}], [{"a": [1, (2.5, odd)]}], [{"a": "x"}, odd]):
            assert cli._json_text(records) == json.dumps(records, indent=2, sort_keys=True)
        key = odd if type(odd) is str else "k"
        assert cli._json_text([{key: 1}]) == json.dumps([{key: 1}], indent=2, sort_keys=True)

    def test_flat_records_skip_the_python_encoder(self, monkeypatch):
        """A list orjson writes alike never reaches json.dumps: the trades
        and divergence records, nested tuples and the ends of each range."""
        records = [{"b": 1.5, "a": 'x "~\\'}, {"a": None, "b": 2**64 - 1, "c": -2**63},
                   {"d": (1e-4, -float(np.nextafter(1e16, 0))), "e": [True, False, 0.0, -0.0, []],
                    "f": {"g": {}, "h": ()}}]
        expected = json.dumps(records, indent=2, sort_keys=True)
        monkeypatch.setattr(json, "dumps", None)
        assert cli._json_text(records) == expected


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
