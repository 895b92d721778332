import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macdlab import (
    IndicatorSeries,
    MacdParams,
    compute_indicators,
    detect_divergences,
    detect_oscillation,
    find_local_extrema,
)
from macdlab.analysis import divergence_pairs, macd_disagrees

from conftest import plant_divergence, random_walk_closes, series_from_closes
from oracles import divergences_naive


def check_event_inequalities(event):
    """Re-verify the four defining conditions from the stored values."""
    p_prev, p_cur = event.price_at_extremes
    m_prev, m_cur = event.macd_at_extremes
    assert event.previous_extreme_index < event.current_extreme_index
    if event.kind == "top":
        assert p_cur > p_prev and m_cur < m_prev
    else:
        assert p_cur < p_prev and m_cur > m_prev


class TestDetectOscillation:
    def test_constant_series_masked_from_day_ten(self, make_series):
        osc = detect_oscillation(make_series([100.0] * 30))
        assert not osc.mask[:10].any()
        assert osc.mask[10:].all()

    def test_fast_growth_never_masked(self, make_series):
        closes = 100.0 * 1.02 ** np.arange(40)
        osc = detect_oscillation(make_series(closes))
        assert not osc.mask.any()

    def test_too_short_rejected(self, make_series):
        with pytest.raises(ValueError):
            detect_oscillation(make_series(np.ones(9)))

    def test_mean10_is_trailing_window(self, make_series):
        closes = np.arange(1.0, 31.0)
        osc = detect_oscillation(make_series(closes))
        assert np.isnan(osc.mean10[:9]).all()
        assert osc.mean10[9] == pytest.approx(np.mean(closes[:10]))
        assert osc.mean10[15] == pytest.approx(np.mean(closes[6:16]))

    def test_pairflag_is_forward_pair(self, make_series):
        closes = np.concatenate([np.full(20, 100.0), [130.0], np.full(9, 100.0)])
        osc = detect_oscillation(make_series(closes))
        assert np.array_equal(osc.pairflag[:-1], osc.inband[:-1] & osc.inband[1:])
        assert not osc.pairflag[-1]

    def test_scale_invariance(self, rng, make_series):
        closes = random_walk_closes(rng, 120, vol=0.008)
        a = detect_oscillation(make_series(closes))
        b = detect_oscillation(make_series(1000.0 * closes))
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.inband, b.inband)

    def test_band_break_ends_run(self, make_series):
        closes = np.concatenate([np.full(25, 100.0), [110.0], np.full(14, 100.0)])
        osc = detect_oscillation(make_series(closes))
        assert osc.mask[12:25].all()
        assert not osc.inband[25]
        assert not osc.mask[26]


class TestFindLocalExtrema:
    def test_single_peak(self):
        peaks, troughs = find_local_extrema([1.0, 3.0, 1.0])
        assert list(peaks) == [1] and list(troughs) == []

    def test_single_trough(self):
        peaks, troughs = find_local_extrema([3.0, 1.0, 3.0])
        assert list(peaks) == [] and list(troughs) == [1]

    def test_monotone_has_none(self):
        peaks, troughs = find_local_extrema([1.0, 2.0, 3.0, 4.0])
        assert len(peaks) == 0 and len(troughs) == 0

    def test_plateau_is_not_strict(self):
        peaks, troughs = find_local_extrema([1.0, 2.0, 2.0, 1.0])
        assert len(peaks) == 0 and len(troughs) == 0

    def test_too_short(self):
        with pytest.raises(ValueError):
            find_local_extrema([1.0, 2.0])


class TestDetectDivergences:
    def test_planted_top_found(self, rng):
        series, ind, t1, t2 = plant_divergence("top", rng)
        events = detect_divergences(series, ind)
        assert len(events) == 1
        event = events[0]
        assert event.kind == "top"
        assert (event.previous_extreme_index, event.current_extreme_index) == (t1, t2)
        check_event_inequalities(event)

    def test_planted_bottom_found(self, rng):
        series, ind, t1, t2 = plant_divergence("bottom", rng)
        events = detect_divergences(series, ind)
        assert len(events) == 1
        assert events[0].kind == "bottom"
        assert (events[0].previous_extreme_index, events[0].current_extreme_index) == (t1, t2)
        check_event_inequalities(events[0])

    def test_confirming_macd_suppresses_event(self, rng):
        series, ind, t1, t2 = plant_divergence("top", rng)
        hist = ind.macd.copy()
        hist[t1], hist[t2] = hist[t2], hist[t1]  # histogram now confirms price
        confirming = IndicatorSeries.from_dif_dea(hist / 2.0, np.zeros(len(hist)))
        assert detect_divergences(series, confirming) == []

    def test_monotone_series_has_no_events(self, make_series):
        closes = np.linspace(100.0, 200.0, 80)
        ind = IndicatorSeries.from_dif_dea(np.zeros(80), np.zeros(80))
        assert detect_divergences(make_series(closes), ind) == []

    def test_pairing_respects_lookback(self, rng, make_series):
        # second peak 70 days after the first: too far back to pair
        n = 120
        closes = np.full(n, 95.0)
        closes[20], closes[95] = 105.0, 106.0
        hist = np.zeros(n)
        hist[20], hist[95] = 4.0, 3.0
        ind = IndicatorSeries.from_dif_dea(hist / 2.0, np.zeros(n))
        assert detect_divergences(make_series(closes), ind) == []

    def test_prominence_window_required(self, make_series):
        # second high fails to clear its 15-day window (a higher shelf before it)
        n = 80
        closes = np.full(n, 95.0)
        closes[20] = 105.0
        closes[30:45] = 107.0   # shelf above the later peak
        closes[50] = 106.0
        hist = np.zeros(n)
        hist[20], hist[50] = 4.0, 3.0
        ind = IndicatorSeries.from_dif_dea(hist / 2.0, np.zeros(n))
        events = detect_divergences(make_series(closes), ind)
        assert all(e.current_extreme_index != 50 for e in events)

    def test_alignment_checked(self, rng, make_series):
        series = make_series(np.linspace(100, 110, 30))
        ind = IndicatorSeries.from_dif_dea(np.zeros(29), np.zeros(29))
        with pytest.raises(ValueError):
            detect_divergences(series, ind)

    def test_too_short_rejected(self, make_series):
        series = make_series(np.linspace(100, 110, 16))
        ind = IndicatorSeries.from_dif_dea(np.zeros(16), np.zeros(16))
        with pytest.raises(ValueError):
            detect_divergences(series, ind)

    def test_events_sorted_and_self_consistent(self, rng):
        closes = random_walk_closes(rng, 500, vol=0.02)
        series = series_from_closes(closes)
        ind = compute_indicators(series, MacdParams())
        events = detect_divergences(series, ind)
        current = [e.current_extreme_index for e in events]
        assert current == sorted(current)
        for event in events:
            check_event_inequalities(event)
            assert event.current_extreme_index - event.previous_extreme_index <= 60

    def test_invariance_under_macd_shift_and_price_scale(self, rng):
        closes = random_walk_closes(rng, 400, vol=0.02)
        series = series_from_closes(closes)
        ind = compute_indicators(series, MacdParams())
        base = detect_divergences(series, ind)

        shifted = IndicatorSeries.from_dif_dea(ind.dif + 25.0, ind.dea)  # macd + 50
        scaled_series = series_from_closes(3.0 * closes)
        moved = detect_divergences(scaled_series, shifted)
        assert [(e.kind, e.current_extreme_index, e.previous_extreme_index) for e in base] == \
               [(e.kind, e.current_extreme_index, e.previous_extreme_index) for e in moved]


def events_from_pairs(closes, macd):
    """(kind, current, previous) of the pairs the histogram disagrees with."""
    out = []
    for kind, (cur, prev) in divergence_pairs(closes).items():
        keep = macd_disagrees(macd, kind, cur, prev)
        out += [(kind, int(t), int(p)) for t, p in zip(cur[keep], prev[keep])]
    return sorted(out, key=lambda e: e[1])


def event_keys(events):
    return [(e.kind, e.current_extreme_index, e.previous_extreme_index) for e in events]


class TestDivergencePairs:
    @pytest.mark.parametrize("kind", ["top", "bottom"])
    def test_planted_corpora(self, rng, kind):
        for _ in range(20):
            series, ind, _, _ = plant_divergence(kind, rng)
            events = event_keys(detect_divergences(series, ind))
            assert events
            assert events_from_pairs(series.closes, ind.macd) == events

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(17, 400), seed=st.integers(0, 2**32 - 1), vol=st.floats(0.002, 0.05))
    def test_random_walks_match_detector_and_oracle(self, n, seed, vol):
        closes = random_walk_closes(np.random.default_rng(seed), n, vol=vol)
        series = series_from_closes(closes)
        ind = compute_indicators(series, MacdParams())
        events = event_keys(detect_divergences(series, ind))
        assert events_from_pairs(closes, ind.macd) == events
        assert divergences_naive(closes, ind.macd) == events

    def test_two_dimensional_histogram_rows(self, rng):
        closes = random_walk_closes(rng, 500, vol=0.02)
        macd = np.array([compute_indicators(series_from_closes(closes), MacdParams(f, 26, 9)).macd
                         for f in (5, 12, 20)])
        for kind, (cur, prev) in divergence_pairs(closes).items():
            flags = macd_disagrees(macd, kind, cur, prev)
            for i in range(len(macd)):
                assert np.array_equal(flags[i], macd_disagrees(macd[i], kind, cur, prev))

    def test_pairs_within_lookback_and_price_diverging(self, rng):
        closes = random_walk_closes(rng, 800, vol=0.02)
        pairs = divergence_pairs(closes)
        for kind, (cur, prev) in pairs.items():
            assert ((cur - prev > 0) & (cur - prev <= 60)).all()
            moves = closes[cur] > closes[prev] if kind == "top" else closes[cur] < closes[prev]
            assert moves.all()
