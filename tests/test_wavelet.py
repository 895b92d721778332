import numpy as np
import pytest

from macdlab.wavelet import (
    COIF5_LOWPASS,
    WaveletFilter,
    coif5_filters,
    decompose,
    denoise_analysis,
    denoise_dif,
    denoise_synthesis,
    dwt_step,
    haar_filters,
    reconstruct,
    reconstruct_approx,
)

from oracles import denoise_naive

SQRT2 = np.sqrt(2.0)


class TestFilterPair:
    def test_coif5_has_thirty_taps(self):
        filt = coif5_filters()
        assert len(filt) == 30
        assert len(COIF5_LOWPASS) == 30

    def test_lowpass_sums_to_sqrt2(self):
        assert coif5_filters().lowpass.sum() == pytest.approx(SQRT2, abs=1e-6)

    def test_lowpass_unit_energy(self):
        h = coif5_filters().lowpass
        assert np.dot(h, h) == pytest.approx(1.0, abs=1e-6)

    def test_highpass_sums_to_zero(self):
        assert coif5_filters().highpass.sum() == pytest.approx(0.0, abs=1e-6)

    def test_alternating_flip_relation(self):
        filt = coif5_filters()
        L = len(filt)
        for k in range(L):
            assert filt.highpass[k] == (-1.0) ** k * filt.lowpass[L - 1 - k]

    def test_even_shift_orthonormality(self):
        h = coif5_filters().lowpass
        for j in range(1, 15):
            assert abs(np.dot(h[:-2 * j], h[2 * j:])) < 1e-6

    def test_haar_pair(self):
        filt = haar_filters()
        assert np.allclose(filt.lowpass, [SQRT2 / 2, SQRT2 / 2])
        assert np.allclose(filt.highpass, [SQRT2 / 2, -SQRT2 / 2])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            WaveletFilter(np.ones(4), np.ones(3))


class TestDwtStep:
    def test_haar_constant_by_hand(self):
        approx, detail = dwt_step([1.0, 1.0, 1.0, 1.0], haar_filters())
        assert np.allclose(approx, [SQRT2, SQRT2], atol=1e-15)
        assert np.allclose(detail, [0.0, 0.0], atol=1e-15)

    def test_haar_hand_convolution(self):
        # pairs (1,2) and (3,4): sums/differences over sqrt(2)
        approx, detail = dwt_step([1.0, 2.0, 3.0, 4.0], haar_filters())
        assert np.allclose(approx, [3 / SQRT2, 7 / SQRT2])
        assert np.allclose(detail, [-1 / SQRT2, -1 / SQRT2])

    def test_coif5_annihilates_constants(self):
        approx, detail = dwt_step(np.full(64, 2.5), coif5_filters())
        assert np.abs(detail).max() <= 1e-10
        assert np.allclose(approx, 2.5 * SQRT2, atol=1e-10)

    @pytest.mark.parametrize("n", [3, 1, 5])
    def test_odd_length_rejected(self, n):
        with pytest.raises(ValueError):
            dwt_step(np.ones(n), haar_filters())

    def test_halves_the_length(self, rng):
        approx, detail = dwt_step(rng.normal(size=32), coif5_filters())
        assert len(approx) == len(detail) == 16

    def test_filter_longer_than_signal_wraps(self, rng):
        x = rng.normal(size=4)
        approx, detail = dwt_step(x, coif5_filters())
        energy = np.dot(approx, approx) + np.dot(detail, detail)
        assert energy == pytest.approx(np.dot(x, x), rel=1e-12)


class TestDecompose:
    def test_level_shapes(self, rng):
        decomp = decompose(rng.normal(size=128), coif5_filters(), 4)
        assert [len(d) for d in decomp.details] == [64, 32, 16, 8]
        assert len(decomp.approx) == 8
        assert decomp.original_length == 128
        assert decomp.levels == 4

    def test_single_level_equals_dwt_step(self, rng):
        x = rng.normal(size=64)
        decomp = decompose(x, coif5_filters(), 1)
        approx, detail = dwt_step(x, coif5_filters())
        assert np.array_equal(decomp.approx, approx)
        assert np.array_equal(decomp.details[0], detail)

    def test_constant_signal_details_vanish(self):
        decomp = decompose(np.full(128, 7.0), coif5_filters(), 4)
        for d in decomp.details:
            assert np.abs(d).max() <= 1e-8

    def test_bad_levels(self, rng):
        with pytest.raises(ValueError):
            decompose(rng.normal(size=16), coif5_filters(), 0)

    def test_indivisible_length_rejected(self, rng):
        with pytest.raises(ValueError):
            decompose(rng.normal(size=100), coif5_filters(), 4)


class TestReconstruct:
    def test_full_inverse_is_exact(self, rng):
        for n in (64, 128, 256, 512, 1024):
            x = rng.normal(size=n)
            decomp = decompose(x, coif5_filters(), 4)
            back = reconstruct(decomp, coif5_filters())
            assert np.linalg.norm(back - x) / np.linalg.norm(x) < 1e-8

    def test_energy_partition(self, rng):
        x = rng.normal(size=256)
        decomp = decompose(x, coif5_filters(), 4)
        energy = np.dot(decomp.approx, decomp.approx) + sum(np.dot(d, d) for d in decomp.details)
        assert abs(energy - np.dot(x, x)) / np.dot(x, x) < 1e-8

    def test_constant_survives_approx_only(self):
        decomp = decompose(np.full(64, 3.25), coif5_filters(), 4)
        back = reconstruct_approx(decomp, coif5_filters())
        assert np.allclose(back, 3.25, atol=1e-8)

    def test_zero_maps_to_zero(self):
        decomp = decompose(np.zeros(64), coif5_filters(), 4)
        assert np.array_equal(reconstruct_approx(decomp, coif5_filters()), np.zeros(64))

    def test_inconsistent_decomposition_rejected(self, rng):
        decomp = decompose(rng.normal(size=64), coif5_filters(), 3)
        decomp.details[1] = decomp.details[1][:-2]
        with pytest.raises(ValueError):
            reconstruct(decomp, coif5_filters())


class TestDenoiseDif:
    def test_output_length_matches_input(self, rng):
        for n in (5, 16, 100, 511, 512):
            assert len(denoise_dif(rng.normal(size=n))) == n

    def test_low_frequency_survives(self):
        t = np.arange(512)
        x = np.sin(2 * np.pi * t / 256.0)
        out = denoise_dif(x)
        assert np.linalg.norm(out - x) / np.linalg.norm(x) < 0.05

    def test_nyquist_noise_removed(self, rng):
        t = np.arange(512)
        clean_sig = np.sin(2 * np.pi * t / 256.0)
        noisy = clean_sig + 0.2 * (-1.0) ** t
        out = denoise_dif(noisy)
        err_out = np.linalg.norm(out - clean_sig)
        err_in = np.linalg.norm(noisy - clean_sig)
        assert err_out < err_in

    def test_linearity(self, rng):
        u, v = rng.normal(size=200), rng.normal(size=200)
        a, b = 2.5, -1.25
        combined = denoise_dif(a * u + b * v)
        separate = a * denoise_dif(u) + b * denoise_dif(v)
        scale = np.abs(separate).max()
        assert np.allclose(combined, separate, atol=1e-8 * max(scale, 1.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            denoise_dif([])


class TestDenoiseExactness:
    """The vectorised denoiser repeats the scalar loops' arithmetic exactly."""

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 29, 30, 31, 40, 100, 1000])
    def test_matches_scalar_loops_bit_for_bit(self, rng, n):
        x = rng.normal(size=n).cumsum()
        assert np.array_equal(denoise_dif(x), denoise_naive(x, COIF5_LOWPASS))

    @pytest.mark.parametrize("n", list(range(1, 41)) + [1000])
    def test_rows_match_one_dimensional_calls(self, rng, n):
        x = rng.normal(size=(4, n)).cumsum(axis=1)
        out = denoise_dif(x)
        assert out.shape == x.shape
        assert all(np.array_equal(out[i], denoise_dif(x[i])) for i in range(len(x)))

    def test_dwt_step_rows(self, rng):
        x = rng.normal(size=(3, 24))
        approx, detail = dwt_step(x, coif5_filters())
        for i in range(len(x)):
            a, d = dwt_step(x[i], coif5_filters())
            assert np.array_equal(approx[i], a) and np.array_equal(detail[i], d)


class TestDenoiseHalves:
    """denoise_dif is its analysis half followed by its synthesis half,
    byte for byte, so a cached trend smooths exactly as a fresh call."""

    @pytest.mark.parametrize("n", list(range(1, 41)) + [1000])
    def test_composition_is_byte_identical(self, rng, n):
        for x in (rng.normal(size=n).cumsum(), rng.normal(size=(3, n)).cumsum(axis=1)):
            trend = denoise_analysis(x)
            assert trend.shape == x.shape[:-1] + (-(-n // 16),)
            assert denoise_synthesis(trend, n).tobytes() == denoise_dif(x).tobytes()

    def test_signed_zero_row(self, rng):
        x = np.vstack([np.where(np.arange(37) % 3, 0.0, -0.0), rng.normal(size=37)])
        out = denoise_synthesis(denoise_analysis(x), 37)
        assert out.tobytes() == denoise_dif(x).tobytes()
        assert out[0].tobytes() == denoise_dif(x[0]).tobytes()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            denoise_analysis([])
