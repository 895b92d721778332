"""Periodized multilevel discrete wavelet transform.

Used to smooth the DIF curve: decompose to four levels with the 30-tap
Coiflet-5 filter pair, zero every detail band, and invert. With periodic
boundary handling the analysis matrix is orthogonal, so the full inverse
is exact and energy is preserved, which keeps both properties testable
to machine precision.

denoise_dif is the composition of two halves: denoise_analysis, which
pads the curve and keeps its level-4 trend (1/16 of its length), and
denoise_synthesis, which rebuilds the smoothed curve from that trend.
The trend depends on the curve alone, so BatchBacktest analyses each
(fast, slow) pair's DIF once per series and synthesises it wherever a
triple needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DENOISE_LEVELS = 4

# Coiflet-5 scaling (lowpass) filter. Values agree with the published
# table to its printed precision and were refined so the orthonormality
# identities (unit energy, vanishing even-shift autocorrelation, sum
# sqrt(2), zero alternating sum) hold to ~1e-16; the tabulated rounding
# would otherwise cap multilevel reconstruction accuracy near 1e-8.
COIF5_LOWPASS = (
    -9.635471698084942e-08,
    -1.6289599129530456e-07,
    2.065494159877007e-06,
    3.7084992286775233e-06,
    -2.1297875709246077e-05,
    -4.1277767861821475e-05,
    0.0001404694695050221,
    0.00030215160860396975,
    -0.0006378826735350855,
    -0.0016629718652562298,
    0.002433331292044012,
    0.006764215874149545,
    -0.009164244937109298,
    -0.019761763417457886,
    0.03268355555491711,
    0.041289227100280226,
    -0.1055742264259404,
    -0.06203594614527831,
    0.437991608317349,
    0.7742896217247779,
    0.4215661886053616,
    -0.05204314574287362,
    -0.09192002722182617,
    0.028168049486008154,
    0.023408134664571874,
    -0.010131110191066302,
    -0.004159367385288327,
    0.0021782832943135206,
    0.00035857066276452924,
    -0.0002120983750290077,
)


@dataclass
class WaveletFilter:
    """Orthogonal analysis filter pair: lowpass h and its quadrature mirror g."""

    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        self.lowpass = np.asarray(self.lowpass, dtype=float)
        self.highpass = np.asarray(self.highpass, dtype=float)
        if len(self.lowpass) != len(self.highpass):
            raise ValueError("lowpass and highpass must have equal length")

    @classmethod
    def from_lowpass(cls, lowpass) -> "WaveletFilter":
        """Build the highpass by the alternating flip g[k] = (-1)^k h[L-1-k]."""
        h = np.asarray(lowpass, dtype=float)
        k = np.arange(len(h))
        g = (-1.0) ** k * h[::-1]
        return cls(lowpass=h, highpass=g)

    def __len__(self) -> int:
        return len(self.lowpass)


@dataclass
class Decomposition:
    """Detail bands d_1..d_J (finest first) plus the level-J approximation."""

    details: list[np.ndarray]
    approx: np.ndarray
    original_length: int
    levels: int


def coif5_filters() -> WaveletFilter:
    """The 30-tap Coiflet-5 analysis pair."""
    return WaveletFilter.from_lowpass(COIF5_LOWPASS)


def haar_filters() -> WaveletFilter:
    """Two-tap Haar pair; handy as an injectable filter in tests."""
    return WaveletFilter.from_lowpass([np.sqrt(0.5), np.sqrt(0.5)])


def _analysis(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """One periodized analysis band along the last axis:
    out[t] = sum_k taps[k] * x[(2t + k) mod n].

    x[(2t + k) mod n] is sample (t + k//2) mod n/2 of x's phase k mod 2
    (its even or odd samples), so with each phase written out twice tap k
    reads one plain slice. Each output gets the taps' products added in
    tap order, whatever the length.
    """
    half = x.shape[-1] // 2
    phases = [np.concatenate((p, p), axis=-1) for p in (x[..., 0::2], x[..., 1::2])]
    out = np.zeros(x.shape[:-1] + (half,))
    for k, c in enumerate(taps):
        s = (k // 2) % half
        out += c * phases[k % 2][..., s: s + half]
    return out


def dwt_step(signal, filt: WaveletFilter) -> tuple[np.ndarray, np.ndarray]:
    """One periodized analysis step along the last axis: halve into
    (approximation, detail).

    approx[t] = sum_k h[k] * x[(2t + k) mod n], detail likewise with g.
    Indices wrap, so filters longer than the signal fold onto it and the
    step stays orthogonal for any even length n >= 2.
    """
    x = np.asarray(signal, dtype=float)
    n = x.shape[-1]
    if n < 2 or n % 2:
        raise ValueError(f"signal length must be even and >= 2, got {n}")
    return _analysis(x, filt.lowpass), _analysis(x, filt.highpass)


def _idwt_step(approx, detail, filt: WaveletFilter) -> np.ndarray:
    """Transpose of dwt_step: merge (approximation, detail) back to length 2n.

    A detail of None stands for an all-zero band. Tap k adds its terms to
    the outputs (2t + k) mod 2n, a cyclic shift of phase k mod 2, so each
    phase sums its own taps' terms in tap order and the two phases are
    interleaved at the end.
    """
    approx = np.asarray(approx, dtype=float)
    if detail is not None:
        detail = np.asarray(detail, dtype=float)
        if approx.shape != detail.shape:
            raise ValueError("approximation and detail lengths differ")
    half = approx.shape[-1]
    phases = [np.zeros(approx.shape), np.zeros(approx.shape)]
    a2 = np.concatenate((approx, approx), axis=-1)
    d2 = None if detail is None else np.concatenate((detail, detail), axis=-1)
    h, g = filt.lowpass, filt.highpass
    for k in range(len(filt)):
        lo = half - (k // 2) % half
        term = h[k] * a2[..., lo: lo + half]
        if d2 is not None:
            term += g[k] * d2[..., lo: lo + half]
        phases[k % 2] += term
    x = np.empty(approx.shape[:-1] + (2 * half,))
    x[..., 0::2], x[..., 1::2] = phases
    return x


def decompose(signal, filt: WaveletFilter, levels: int = DENOISE_LEVELS) -> Decomposition:
    """Apply dwt_step recursively to the approximation, `levels` times."""
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    x = np.asarray(signal, dtype=float)
    if x.size % (1 << levels):
        raise ValueError(f"signal length {x.size} not divisible by 2^{levels}")
    details = []
    cur = x
    for _ in range(levels):
        cur, d = dwt_step(cur, filt)
        details.append(d)
    return Decomposition(details=details, approx=cur, original_length=x.size, levels=levels)


def _check_shape(decomp: Decomposition) -> None:
    n = decomp.original_length
    if len(decomp.details) != decomp.levels:
        raise ValueError("decomposition level count does not match its detail bands")
    for j, d in enumerate(decomp.details, start=1):
        if len(d) != n >> j:
            raise ValueError(f"detail band {j} has length {len(d)}, expected {n >> j}")
    if len(decomp.approx) != n >> decomp.levels:
        raise ValueError("approximation length does not match the decomposition shape")


def reconstruct(decomp: Decomposition, filt: WaveletFilter) -> np.ndarray:
    """Full inverse transform, details kept. Exact for orthogonal filters."""
    _check_shape(decomp)
    cur = decomp.approx
    for d in reversed(decomp.details):
        cur = _idwt_step(cur, d, filt)
    return cur


def reconstruct_approx(decomp: Decomposition, filt: WaveletFilter) -> np.ndarray:
    """Inverse transform with every detail band zeroed: the low-frequency trend."""
    _check_shape(decomp)
    cur = decomp.approx
    for d in reversed(decomp.details):
        cur = _idwt_step(cur, None, filt)
    return cur


def denoise_dif(dif) -> np.ndarray:
    """Smooth a DIF curve by keeping only the level-4 approximation.

    The input is edge-padded (last value repeated) up to a multiple of
    2^4, decomposed with the Coiflet-5 pair, rebuilt from the
    approximation alone, and trimmed back to the input length. The
    detail bands are never formed: they would be zeroed anyway. A 2-D
    input is a stack of curves along its last axis; each row comes out
    exactly as it would alone.

    This is denoise_synthesis(denoise_analysis(dif), n), so a caller that
    smooths one curve many times can keep the trend and run only the
    synthesis.

    Note this transforms the whole series at once: a day's smoothed value
    depends on later samples too, so crossovers traded on it carry
    look-ahead (README's look-ahead note, test_backtest.py TestLookAhead).
    """
    x = np.asarray(dif, dtype=float)
    return denoise_synthesis(denoise_analysis(x), x.shape[-1])


def denoise_analysis(dif) -> np.ndarray:
    """The analysis half of denoise_dif: the level-4 Coiflet-5 trend of
    the edge-padded curve, ceil(n / 16) values per row."""
    x = np.asarray(dif, dtype=float)
    if x.size == 0:
        raise ValueError("cannot denoise an empty series")
    n = x.shape[-1]
    block = 1 << DENOISE_LEVELS
    pad = -(-n // block) * block - n
    cur = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(0, pad)], mode="edge")
    filt = coif5_filters()
    for _ in range(DENOISE_LEVELS):
        cur = _analysis(cur, filt.lowpass)
    return cur


def denoise_synthesis(trend, n: int) -> np.ndarray:
    """The synthesis half of denoise_dif: rebuild a curve of n days from
    its trend (as denoise_analysis makes it), every detail band zero."""
    cur = np.asarray(trend, dtype=float)
    filt = coif5_filters()
    for _ in range(DENOISE_LEVELS):
        cur = _idwt_step(cur, None, filt)
    return cur[..., :n]
