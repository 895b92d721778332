import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from macdlab import IndicatorSeries, MacdParams, compute_indicators, cross_signals, ema
from macdlab import indicators
from macdlab.backtest import _ema_by_row
from macdlab.errors import ConfigError
from macdlab.indicators import SIGNAL_BUY, SIGNAL_NONE, SIGNAL_SELL

from conftest import random_walk_closes, series_from_closes
from oracles import cross_signals_naive, ema_naive, macd_naive


class TestMacdParams:
    def test_defaults(self):
        p = MacdParams()
        assert p.as_tuple() == (12, 26, 9)

    @pytest.mark.parametrize("bad", [(0, 26, 9), (12, 26, 0), (-3, 26, 9)])
    def test_rejects_nonpositive_periods(self, bad):
        with pytest.raises(ConfigError):
            MacdParams(*bad)

    @pytest.mark.parametrize("bad", [(True, 26, 9), (12, 26, False), (12.0, 26, 9),
                                     (12, 26.5, 9), (12, np.float64(26), 9), (12, 26, "9")])
    def test_rejects_non_integers_and_bools(self, bad):
        with pytest.raises(ConfigError, match=r"period must be an integer >= 1, got "):
            MacdParams(*bad)

    def test_accepts_numpy_integers(self):
        assert MacdParams(np.int32(12), np.int64(26), np.uint8(9)).as_tuple() == (12, 26, 9)

    def test_rejects_fast_not_below_slow(self):
        with pytest.raises(ConfigError):
            MacdParams(26, 12, 9)
        with pytest.raises(ConfigError):
            MacdParams(20, 20, 9)


class TestEma:
    def test_constant_is_fixed_point(self):
        assert np.array_equal(ema([5, 5, 5], 3), [5, 5, 5])

    def test_two_point_hand_value(self):
        # alpha = 2/3: e1 = (2/3)*2 + (1/3)*1
        out = ema([1, 2], 2)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            ema([], 3)

    def test_bad_period_raises(self):
        with pytest.raises(ValueError):
            ema([1, 2], 0)

    def test_period_one_copies_input(self):
        x = [3.0, 1.0, 4.0, 1.5]
        assert np.array_equal(ema(x, 1), x)

    @pytest.mark.parametrize("period", [9, 12, 26])
    def test_seed_is_within_one_ulp_of_first_value(self, period):
        # The filter's initial condition makes e[0] the rounded sum
        # (1 - alpha) * x0 + alpha * x0, not x0 itself.
        x = np.random.default_rng(period).uniform(1.0, 200.0, size=(2000, 3))
        alpha = 2.0 / (period + 1.0)
        x0, e0 = x[:, 0], ema(x, period)[:, 0]
        assert np.array_equal(e0, (1.0 - alpha) * x0 + alpha * x0)
        assert np.all(np.abs(e0 - x0) <= np.spacing(x0))
        assert np.any(e0 != x0)
        assert np.array_equal(ema(x[0], period)[0], e0[0])

    def test_matches_naive_recurrence(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 300))
            period = int(rng.integers(1, 40))
            x = rng.normal(0, 50, n)
            got = ema(x, period)
            want = np.array(ema_naive(x, period))
            assert np.allclose(got, want, rtol=1e-10, atol=1e-12)


class TestIndicatorSeries:
    def test_unequal_shapes_rejected(self):
        with pytest.raises(ValueError, match="^dif, dea and macd must have equal length$"):
            IndicatorSeries(dif=[1.0, 2.0], dea=[1.0], macd=[0.0, 2.0])


class TestComputeIndicators:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="^cannot compute indicators on an empty series$"):
            compute_indicators([], MacdParams())

    def test_constant_series_all_zero(self, make_series):
        ind = compute_indicators(make_series([100.0] * 50), MacdParams())
        assert np.allclose(ind.dif, 0) and np.allclose(ind.dea, 0) and np.allclose(ind.macd, 0)

    def test_equal_periods_give_zero_dif(self, make_series):
        # validation bypassed on purpose: x == y collapses the spread
        fake = SimpleNamespace(fast=10, slow=10, signal=9)
        ind = compute_indicators(make_series([100, 101, 99, 103, 102] * 10), fake)
        assert np.array_equal(ind.dif, np.zeros(50))

    def test_rising_ramp_has_positive_spread_at_end(self, make_series):
        closes = np.arange(100.0, 150.0)
        ind = compute_indicators(make_series(closes), MacdParams())
        dif, _, _ = macd_naive(closes, 12, 26, 9)
        assert dif[49] > 0
        assert ind.dif[49] == pytest.approx(dif[49], rel=1e-12)

    def test_histogram_identity_exact(self, rng):
        closes = random_walk_closes(rng, 200)
        ind = compute_indicators(series_from_closes(closes), MacdParams())
        assert np.array_equal(ind.macd, 2.0 * (ind.dif - ind.dea))

    def test_matches_naive_oracle(self, rng):
        for _ in range(10):
            closes = random_walk_closes(rng, int(rng.integers(30, 400)))
            params = MacdParams(int(rng.integers(2, 15)), int(rng.integers(20, 40)), int(rng.integers(2, 20)))
            ind = compute_indicators(series_from_closes(closes), params)
            dif, dea, hist = macd_naive(closes, params.fast, params.slow, params.signal)
            scale = np.abs(closes).max()
            assert np.allclose(ind.dif, dif, rtol=1e-10, atol=1e-10 * scale)
            assert np.allclose(ind.dea, dea, rtol=1e-10, atol=1e-10 * scale)
            assert np.allclose(ind.macd, hist, rtol=1e-10, atol=1e-10 * scale)

    def test_shift_invariance(self, rng):
        closes = random_walk_closes(rng, 150)
        base = compute_indicators(series_from_closes(closes), MacdParams())
        shifted = compute_indicators(series_from_closes(closes + 500.0), MacdParams())
        assert np.allclose(base.dif, shifted.dif, atol=1e-8)
        assert np.allclose(base.dea, shifted.dea, atol=1e-8)
        assert np.allclose(base.macd, shifted.macd, atol=1e-8)

    def test_scaling_scales_indicators_but_not_signals(self, rng):
        closes = random_walk_closes(rng, 150)
        k = 7.5
        base = compute_indicators(series_from_closes(closes), MacdParams())
        scaled = compute_indicators(series_from_closes(k * closes), MacdParams())
        assert np.allclose(scaled.dif, k * base.dif, rtol=1e-12)
        assert np.allclose(scaled.macd, k * base.macd, rtol=1e-12)
        assert np.array_equal(cross_signals(base).signals, cross_signals(scaled).signals)


class TestCrossSignals:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="^cross_signals on empty indicator series$"):
            cross_signals(IndicatorSeries.from_dif_dea([], []))

    def test_upward_cross_is_buy(self):
        ind = IndicatorSeries.from_dif_dea(np.array([-1.0, 1.0]), np.array([0.0, 0.0]))
        assert list(cross_signals(ind).signals) == [SIGNAL_NONE, SIGNAL_BUY]

    def test_downward_cross_is_sell(self):
        ind = IndicatorSeries.from_dif_dea(np.array([1.0, -1.0]), np.array([0.0, 0.0]))
        assert list(cross_signals(ind).signals) == [SIGNAL_NONE, SIGNAL_SELL]

    def test_equal_lines_never_cross(self):
        dif = np.array([1.0, 2.0, 3.0])
        assert list(cross_signals(IndicatorSeries.from_dif_dea(dif, dif)).signals) == [0, 0, 0]

    def test_touch_then_rise_counts_as_cross(self):
        ind = IndicatorSeries.from_dif_dea(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert list(cross_signals(ind).signals) == [SIGNAL_NONE, SIGNAL_BUY]

    def test_day_zero_untagged(self, rng):
        closes = random_walk_closes(rng, 50)
        ind = compute_indicators(series_from_closes(closes), MacdParams())
        assert cross_signals(ind).signals[0] == SIGNAL_NONE

    def test_no_two_consecutive_identical_signals(self, rng):
        for _ in range(20):
            closes = random_walk_closes(rng, 300, vol=0.03)
            ind = compute_indicators(series_from_closes(closes), MacdParams())
            tags = [s for s in cross_signals(ind).signals if s != SIGNAL_NONE]
            assert all(a != b for a, b in zip(tags, tags[1:]))


class TestLastAxis:
    """A 2-D call computes each row exactly as the 1-D call would."""

    LENGTHS = list(range(1, 41)) + [257, 1000]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_ema_rows(self, rng, n):
        x = rng.normal(size=(5, n)).cumsum(axis=1)
        for period in (1, 5, 26):
            out = ema(x, period)
            assert all(np.array_equal(out[i], ema(x[i], period)) for i in range(len(x)))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_cross_signals_rows(self, rng, n):
        dif = rng.normal(size=(5, n))
        dea = np.round(dif + rng.normal(scale=0.5, size=(5, n)), 1)
        dif[:, ::3] = dea[:, ::3]  # ties: touching lines
        dif[3, n // 2:] = np.nan  # a line that stops, and one with gaps
        dea[4, ::4] = np.nan
        out = cross_signals(IndicatorSeries.from_dif_dea(dif, dea)).signals
        assert out.shape == dif.shape
        for i in range(len(dif)):
            row = cross_signals(IndicatorSeries.from_dif_dea(dif[i], dea[i])).signals
            assert np.array_equal(out[i], row)
            assert row.tolist() == cross_signals_naive(dif[i].tolist(), dea[i].tolist())


def lfilter_ema(x, n):
    """The EMA as scipy.signal.lfilter computes it: the reference."""
    x = np.asarray(x, dtype=float)
    alpha = 2.0 / (n + 1.0)
    out, _ = lfilter([alpha], [1.0, alpha - 1.0], x, axis=-1, zi=(1.0 - alpha) * x[..., :1])
    return out


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0, and NaN payloads


PERIODS = range(1, 61)
PARITY_LENGTHS = list(range(1, 21)) + [31, 64, 127, 128, 129, 255, 256, 257, 500, 1000,
                                       1024, 2047, 2500, 2999, 3000]


class TestLfilterParity:
    """ema is lfilter's kernel called with lfilter's arguments: equal bit for bit."""

    def check_all(self, rng):
        for n in PARITY_LENGTHS:
            x = rng.normal(size=(3, n)).cumsum(axis=1) * 10.0 + 100.0
            for period in PERIODS:
                assert_bits_equal(ema(x[0], period), lfilter_ema(x[0], period))
                assert_bits_equal(ema(x, period), lfilter_ema(x, period))

    def test_periods_and_lengths(self, rng):
        self.check_all(rng)

    def test_every_length(self, rng):
        x = rng.normal(size=(2, 3000)).cumsum(axis=1)
        for n in range(1, 3001):
            period = n % 60 + 1
            assert_bits_equal(ema(x[0, :n], period), lfilter_ema(x[0, :n], period))
            assert_bits_equal(ema(x[:, :n], period), lfilter_ema(x[:, :n], period))

    def test_fallback_route(self, rng, monkeypatch):
        # The file locator misses, so the kernel comes from an ordinary import.
        monkeypatch.setattr(indicators, "_sigtools_path", lambda: None)
        monkeypatch.setattr(indicators, "_linear_filter", indicators._load_linear_filter())
        self.check_all(rng)

    def test_direct_route_finds_the_extension(self):
        path = indicators._sigtools_path()
        assert path is not None and Path(path).is_file()

    @pytest.mark.parametrize("values", [
        [5.0] * 40,
        [-3.25] * 40,
        list(-np.geomspace(1e-3, 1e3, 40)),
        [0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 0.0],
        [-0.0] * 10,
        [1e308, -1e308, 1e308, 5e-324, -5e-324],
    ])
    def test_special_series(self, values):
        x = np.array(values)
        for period in (1, 2, 9, 26, 60):
            assert_bits_equal(ema(x, period), lfilter_ema(x, period))
            assert_bits_equal(ema(np.stack([x, -x]), period), lfilter_ema(np.stack([x, -x]), period))

    def test_sign_of_zero_kept(self):
        out = ema([-0.0, -0.0, -0.0], 5)
        assert np.all(out == 0.0) and np.all(np.signbit(out))
        assert not np.any(np.signbit(ema([0.0, 0.0], 5)))

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64),
                           min_size=1, max_size=300),
           period=st.integers(1, 60), rows=st.integers(1, 3))
    def test_hypothesis_series(self, values, period, rows):
        x = np.array(values)
        with np.errstate(all="ignore"):  # inf and nan inputs, overflow
            x2 = np.stack([x * (k + 1) for k in range(rows)])
            assert_bits_equal(ema(x, period), lfilter_ema(x, period))
            assert_bits_equal(ema(x2, period), lfilter_ema(x2, period))

    @pytest.mark.parametrize("periods", [[9] * 6, [5, 9, 9, 12, 5, 30]])
    def test_ema_by_row(self, rng, periods):
        x = rng.normal(size=(len(periods), 700)).cumsum(axis=1)
        out = _ema_by_row(x, np.array(periods))
        for row, period, got in zip(x, periods, out):
            assert_bits_equal(got, ema(row, period))


def test_import_footprint():
    """Importing the CLI and running a batch of backtests in every mode
    loads none of scipy.signal, scipy.stats or numpy.ma."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = """
import sys
from datetime import date, timedelta

import numpy as np

import macdlab.cli
from macdlab import PriceSeries, StrategyMode
from macdlab.backtest import SeriesCache

rng = np.random.default_rng(5)
closes = 100.0 * np.exp(np.cumsum(rng.normal(4e-4, 0.01, 300)))
series = PriceSeries("A", [date(2014, 1, 2) + timedelta(days=i) for i in range(300)], closes)
for mode in StrategyMode:
    SeriesCache(series).nets([(12, 26, 9), (5, 30, 9), (8, 40, 14)], mode)
print(",".join(sorted({"scipy.signal", "scipy.stats", "numpy.ma"} & set(sys.modules))))
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
