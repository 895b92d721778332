"""The GA's random substreams, drawn without importing numpy.random.

`Stream(entropy)` gives the numbers that
`np.random.default_rng(np.random.SeedSequence(entropy))` gives, bit for
bit, for the calls the GA makes: `random()` and `random(size)`,
`integers(low, high[, size])` with scalar or broadcast bounds, and
`choice(n, size, replace=True, p=p)`. Importing numpy.random loads its
bit generators and, through `secrets` and `hmac`, OpenSSL's `_hashlib`:
11-16 ms and 5.5 MB of resident memory per command on a 2-core x86_64
host with numpy 2.4, only to seed a few dozen substreams. The GA's
outputs so depend only on the SeedSequence and PCG64 algorithms below,
not on numpy's Generator methods, whose streams NEP 19 lets change
between numpy versions. Numpy and stdlib only, and kept out of
`macdlab.__all__`. tests/test_streams.py checks it against numpy.random.

What is reproduced (all arithmetic wraps at the width named):

- Entropy words: each int of the entropy as its little-endian uint32
  words, 0 as one word 0, concatenated.
- SeedSequence, pool of 4 uint32: hashmix(v) is `v ^= h; h *= MULT_A;
  v *= h; v ^= v >> 16` with the running constant h starting at INIT_A;
  mix(x, y) is `r = x * MIX_MULT_L - y * MIX_MULT_R; r ^ r >> 16`. The
  pool takes hashmix of the first 4 words (0 past the end), then each
  word mixes in hashmix of every other word, then each word past the
  fourth is mixed into every pool word. `generate_state(4, uint64)` runs
  h from INIT_B with MULT_B over the pool cycled to 8 words and pairs
  them little-endian into s0..s3.
- PCG64 seeding: `inc = (s2 << 64 | s3) << 1 | 1`, then
  `state = (inc + (s0 << 64 | s1)) * M + inc` (mod 2**128).
- A 64-bit draw steps `state = state * M + inc`, then outputs XSL-RR:
  `rotr64(hi ^ lo, state >> 122)` of the new state.
- A double is `(u64 >> 11) * 2**-53`.
- A 32-bit draw is the low half of a fresh u64; its high half is kept
  for the next 32-bit draw, across calls. Doubles never touch it.
- `integers`: for each element, with `r = high - 1 - low`, `r == 0`
  draws nothing. Otherwise Lemire's method: `m = u32 * (r + 1)`, redrawn
  while `m mod 2**32 < (2**32 - r - 1) mod (r + 1)`, and the value is
  `low + (m >> 32)`. Elements draw in C order over the broadcast shape.
  From r = 2**32 on numpy draws 64-bit words, which is not reproduced.
- `choice`: a of 0 or less with samples to take is refused, and p is
  checked as numpy 2 checks it (a Kahan sum that is NaN, a negative
  entry, a sum further than sqrt(eps) from 1), then
  `cdf = p.cumsum(); cdf /= cdf[-1]; cdf.searchsorted(random(size),
  side="right")`.

Scalar draws run in Python ints. An array draw of k u64 computes all k
states at once from a seed-independent jump table: j steps from state s
give `A_j * s + B_j * inc` (mod 2**128), with `A_j = M**j` and
`B_j = M**(j-1) + ... + M + 1`, which is `s + B_j * ((M - 1) * s + inc)`
since `A_j - 1 = (M - 1) * B_j`. So one 128-bit product per draw, in
uint64 arithmetic whose high half goes through 32-bit limbs. The table
is built at the first array draw of a process, never at import.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1

# SeedSequence's hash constants (O'Neill's seed_seq_fe).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

_TWO_M53 = 2.0**-53
# numpy's tolerance on the sum of choice's p: sqrt(float64 eps).
_ATOL = 2.0**-26
_SUM_MESSAGE = ("Probabilities do not sum to 1. "
                "See Notes section of docstring for more information.")

# Every uint64 constant is a np.uint64, since numpy 1.x's value-based
# casting can turn a mixed uint64 expression into float64.
_U11, _U32, _U58, _U63, _U64 = (np.uint64(v) for v in (11, 32, 58, 63, 64))
_U_MASK32, _U_2_32 = np.uint64(_MASK32), np.uint64(2**32)
_INTS = (int, np.integer)


def _entropy_words(entropy) -> list[int]:
    values = entropy if isinstance(entropy, (list, tuple)) else [entropy]
    words = []
    for value in map(int, values):
        if value < 0:
            raise ValueError(f"expected non-negative integer entropy, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _seed_words(words: list[int]) -> list[int]:
    """SeedSequence(words).generate_state(4, np.uint64), as ints."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    h, state = _INIT_B, []
    for i in range(8):
        value = pool[i % 4] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        state.append(value ^ value >> 16)
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


@functools.cache
def _jump_table(size: int) -> tuple[np.ndarray, ...]:
    """B_j = M**(j-1) + ... + M + 1 for j = 1..size, a power of two, as
    four read-only uint64 arrays: the low 64 bits as two 32-bit limbs,
    the low 64 bits whole, and the high 64 bits. The same for every seed."""
    if size == 1:
        low, high = np.ones(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)
    else:
        # B_(h+j) = M**h * B_j + B_h
        first = _jump_table(size // 2)
        b_h = int(first[3][-1]) << 64 | int(first[2][-1])
        low, high = _plus(*_times(*first, pow(_MULT, size // 2, 2**128)), b_h)
        low, high = np.concatenate([first[2], low]), np.concatenate([first[3], high])
    table = np.stack([low & _U_MASK32, low >> _U32, low, high])
    table.flags.writeable = False
    return tuple(table)


def _times(limb0, limb1, low, high, x: int):
    """(low, high) uint64 halves of (high << 64 | low) * x mod 2**128,
    elementwise; limb0 and limb1 are low's 32-bit halves."""
    x_low, x_high = x & _MASK64, x >> 64
    x0, x1 = np.uint64(x_low & _MASK32), np.uint64(x_low >> 32)
    p01, p11 = limb0 * x1, limb1 * x1
    t = (limb0 * x0 >> _U32) + limb1 * x0
    u = (t & _U_MASK32) + p01
    mul_high = p11 + (t >> _U32) + (u >> _U32)
    x_low = np.uint64(x_low)
    return low * x_low, mul_high + low * np.uint64(x_high) + high * x_low


def _plus(low, high, x: int):
    """(low, high) uint64 halves of (high << 64 | low) + x mod 2**128."""
    x_low = np.uint64(x & _MASK64)
    low = low + x_low
    return low, high + np.uint64(x >> 64) + (low < x_low)


def _kahan_sum(values: list[float]) -> float:
    """numpy's kahan_sum, which choice's checks use."""
    if not values:
        return 0.0
    total, c = values[0], 0.0
    for v in values[1:]:
        y = v - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def _check_probabilities(p: np.ndarray) -> None:
    """Raise numpy's ValueError for a p that Generator.choice refuses."""
    total = _kahan_sum(p.tolist())
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _ATOL:
        raise ValueError(_SUM_MESSAGE)


class Stream:
    """PCG64 seeded through SeedSequence(entropy), drawn as numpy's
    Generator draws: see the module docstring for what is reproduced."""

    def __init__(self, entropy):
        s0, s1, s2, s3 = _seed_words(_entropy_words(entropy))
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _MASK128
        # 32-bit words drawn and not yet used, the next one last. Between
        # calls it holds at most the high half of a u64 whose low half a
        # 32-bit draw took.
        self._words = []

    @property
    def state(self) -> dict:
        """The state in the layout of numpy's `PCG64.state`."""
        return {"bit_generator": "PCG64",
                "state": {"state": self._state, "inc": self._inc},
                "has_uint32": int(bool(self._words)),
                "uinteger": self._words[-1] if self._words else 0}

    def _next64(self) -> int:
        s = self._state = (self._state * _MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._words:
            return self._words.pop()
        u = self._next64()
        self._words.append(u >> 32)
        return u & _MASK32

    def _bounded(self, span: int) -> int:
        """Lemire's draw in [0, span), for 1 < span <= 2**32."""
        m = self._next32() * span
        if m & _MASK32 < span:  # the only case that can be rejected
            threshold = (2**32 - span) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return m >> 32

    def random_raw(self, size: int) -> np.ndarray:
        """The next `size` 64-bit outputs, as PCG64.random_raw(size)."""
        if size == 0:
            return np.empty(0, dtype=np.uint64)
        # state_j = A_j * s + B_j * inc = s + B_j * ((M - 1) * s + inc),
        # since A_j - 1 = (M - 1) * B_j.
        s = self._state
        columns = _jump_table(1 << (size - 1).bit_length())
        low, high = _plus(*_times(*(c[:size] for c in columns),
                                  ((_MULT - 1) * s + self._inc) & _MASK128), s)
        self._state = int(high[-1]) << 64 | int(low[-1])
        x = high ^ low
        rot = high >> _U58
        return x >> rot | x << ((_U64 - rot) & _U63)

    def _words32(self, count: int) -> np.ndarray:
        """The next `count` 32-bit draws, as a uint64 array."""
        head, self._words = self._words[::-1], []
        need = count - len(head)
        # each u64's low half, then its high half
        words = self.random_raw((need + 1) // 2).astype("<u8", copy=False).view("<u4")
        if need % 2:
            self._words.append(int(words[-1]))
        words = words[:need].astype(np.uint64)
        return np.concatenate([np.array(head, dtype=np.uint64), words]) if head else words

    def random(self, size=None):
        """Generator.random(size): doubles in [0, 1)."""
        if size is None:
            return (self._next64() >> 11) * _TWO_M53
        raw = self.random_raw(size if isinstance(size, _INTS) else math.prod(size))
        return (raw >> _U11).astype(np.float64).reshape(size) * _TWO_M53

    def integers(self, low, high, size=None):
        """Generator.integers(low, high, size) as int64, for ranges
        below 2**32; a scalar call gives an int."""
        if size is None and isinstance(low, _INTS) and isinstance(high, _INTS):
            low, span = int(low), int(high) - int(low)
            if span < 1:
                raise ValueError("high <= 0" if low == 0 else "low >= high")
            if span > 2**32:
                raise ValueError("ranges of 2**32 or more are not reproduced")
            return low + self._bounded(span) if span > 1 else low
        if size is None:
            size = np.broadcast(np.asarray(low), np.asarray(high)).shape
        lows, spans = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
        lows[...], spans[...] = low, high
        lows, spans = lows.ravel(), spans.ravel() - lows.ravel()
        if not spans.size:
            return lows.reshape(size)
        smallest = spans.min()
        if smallest < 1:
            raise ValueError("low >= high")
        if spans.max() > 2**32:
            raise ValueError("ranges of 2**32 or more are not reproduced")
        # numpy draws nothing for a zero-width range
        wide = slice(None) if smallest > 1 else np.flatnonzero(spans > 1)
        spans = spans[wide].astype(np.uint64)
        if not spans.size:
            return lows.reshape(size)
        words = self._words32(spans.size)
        m = words * spans
        leftover = m & _U_MASK32
        # Lemire's rejection needs leftover < (2**32 - span) % span < span.
        rejected = np.flatnonzero(leftover < spans)
        rejected = rejected[leftover[rejected] < (_U_2_32 - spans[rejected]) % spans[rejected]]
        draws = (m >> _U32).astype(np.int64)
        if rejected.size:
            # Put the words from the first rejected one back, and draw the
            # elements from there one at a time.
            cut = rejected[0]
            self._words += words[cut:][::-1].tolist()
            draws[cut:] = [self._bounded(span) for span in spans[cut:].tolist()]
        lows[wide] += draws
        return lows.reshape(size)

    def choice(self, a: int, size, replace: bool = True, p=None) -> np.ndarray:
        """Generator.choice(a, size, replace=True, p=p) for an int a."""
        if not replace or p is None:
            raise NotImplementedError("only choice(a, size, replace=True, p=p) is reproduced")
        if a <= 0 and np.prod(size) != 0:
            raise ValueError("a must be a positive integer unless no samples are taken")
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size != a:
            raise ValueError("a and p must have same size")
        _check_probabilities(p)
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return cdf.searchsorted(self.random(size), side="right")
