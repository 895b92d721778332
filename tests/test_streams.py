"""macdlab.streams.Stream against numpy.random, bit for bit: the PCG64
state after SeedSequence seeding, the raw 64-bit outputs, and the
Generator calls the GA makes, in any order, so that the buffered high
half of a 32-bit draw carries across calls as numpy's does."""

import json
import os
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from macdlab import streams
from macdlab.streams import Stream

from conftest import random_walk_closes

# Multi-word ints past 2**64 included.
entropies = (st.integers(0, 2**80)
             | st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 2**80), min_size=1, max_size=7))


def reference(entropy):
    return np.random.default_rng(np.random.SeedSequence(entropy))


def state_of(generator):
    """numpy's state, with the buffered half only where one is buffered:
    numpy leaves a used half's value behind when it clears has_uint32."""
    state = dict(generator.bit_generator.state)
    if not state["has_uint32"]:
        state["uinteger"] = 0
    return state


def assert_same(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


class TestSeeding:
    @settings(max_examples=200, deadline=None)
    @given(entropies)
    def test_state_after_seeding(self, entropy):
        assert Stream(entropy).state == np.random.PCG64(np.random.SeedSequence(entropy)).state

    @pytest.mark.parametrize("entropy", [0, [0], [0, 0, 0], [2**32], [2**64 + 3, 5], 2**128 - 1])
    def test_small_and_multi_word_entropy(self, entropy):
        assert Stream(entropy).state == np.random.PCG64(np.random.SeedSequence(entropy)).state

    def test_negative_entropy_rejected(self):
        with pytest.raises(ValueError):
            Stream([3, -1])

    @settings(max_examples=100, deadline=None)
    @given(entropies, st.lists(st.integers(0, 700), min_size=1, max_size=4))
    def test_random_raw(self, entropy, sizes):
        stream, bits = Stream(entropy), np.random.PCG64(np.random.SeedSequence(entropy))
        for size in sizes:
            assert_same(stream.random_raw(size), bits.random_raw(size))
        assert stream.state == bits.state


class TestDraws:
    @settings(max_examples=100, deadline=None)
    @given(entropies, st.integers(0, 5) | st.tuples(st.integers(0, 40), st.integers(1, 3)))
    def test_random(self, entropy, size):
        stream, generator = Stream(entropy), reference(entropy)
        assert_same(stream.random(), generator.random())
        assert_same(stream.random(size), generator.random(size))
        assert stream.state == state_of(generator)

    @pytest.mark.parametrize("low, high", [(1, 3), (0, 2), (5, 6), (1, 2**31 + 2), (0, 2**32),
                                           (7, 7 + 2**32 - 1), (-4, 9)])
    def test_scalar_integers(self, low, high):
        stream, generator = Stream([4, 1, 2]), reference([4, 1, 2])
        for _ in range(40):
            assert stream.integers(low, high) == generator.integers(low, high)
            assert stream.state == state_of(generator)

    def test_range_near_2_31_redraws(self):
        """About half of all words are rejected for a range of 2**31 + 1,
        so the draws after the first rejection come one at a time."""
        lows, highs = np.array([1, 3]), np.array([2**31 + 2, 2**31 + 4])
        stream, generator = Stream(9), reference(9)
        for rows in (1, 7, 250):
            assert_same(stream.integers(lows, highs, size=(rows, 2)),
                        generator.integers(lows, highs, size=(rows, 2)))
            assert stream.state == state_of(generator)

    def test_odd_count_leaves_a_half_for_the_next_call(self):
        stream, generator = Stream([0, 3, 3]), reference([0, 3, 3])
        lows, highs = np.array([5, 20, 5]), np.array([21, 51, 26])
        assert_same(stream.integers(lows, highs, size=(5, 3)),
                    generator.integers(lows, highs, size=(5, 3)))
        assert stream.state == state_of(generator) and stream.state["has_uint32"] == 1
        assert_same(stream.random(4), generator.random(4))  # doubles leave the half alone
        assert stream.state["has_uint32"] == 1
        assert stream.integers(1, 3) == generator.integers(1, 3)
        assert stream.state == state_of(generator) and stream.state["has_uint32"] == 0

    def test_zero_width_bounds_draw_nothing(self):
        lows, highs = np.array([4, 1, 9, 2]), np.array([5, 2**31 + 2, 10, 40])
        stream, generator = Stream([1, 2, 3]), reference([1, 2, 3])
        for rows in (1, 2, 9, 100):
            assert_same(stream.integers(lows, highs, size=(rows, 4)),
                        generator.integers(lows, highs, size=(rows, 4)))
            assert stream.state == state_of(generator)
        assert_same(stream.integers(np.array([3, 3]), np.array([4, 4]), size=(6, 2)),
                    generator.integers(np.array([3, 3]), np.array([4, 4]), size=(6, 2)))
        assert stream.state == state_of(generator)

    def test_broadcast_without_size(self):
        stream, generator = Stream(5), reference(5)
        assert_same(stream.integers(np.array([[1], [10]]), np.array([14, 30, 2**31 + 9])),
                    generator.integers(np.array([[1], [10]]), np.array([14, 30, 2**31 + 9])))
        assert stream.state == state_of(generator)

    def test_integers_leave_their_arguments_alone(self):
        lows, highs = np.full((3, 2), 5), np.full((3, 2), 9)
        Stream(0).integers(lows, highs, size=(3, 2))
        assert (lows == 5).all() and (highs == 9).all()

    @pytest.mark.parametrize("low, high", [(3, 3), (5, 2), (0, 0)])
    def test_empty_range_rejected(self, low, high):
        with pytest.raises(ValueError):
            reference(0).integers(low, high)
        with pytest.raises(ValueError):
            Stream(0).integers(low, high)
        with pytest.raises(ValueError, match="low >= high"):
            Stream(0).integers(np.array([1, low]), np.array([4, high]), size=(2, 2))

    @pytest.mark.parametrize("low, high", [(0, 2**32 + 1), (1, 2**40)])
    def test_range_of_2_32_or_more_rejected(self, low, high):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            Stream(0).integers(low, high)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            Stream(0).integers(np.array([1, low]), np.array([4, high]), size=(2, 2))

    @settings(max_examples=100, deadline=None)
    @given(entropies, st.integers(1, 600), st.integers(0, 500), st.integers(0, 3))
    def test_choice(self, entropy, n, size, zeros):
        p = np.random.default_rng(n).random(n) ** 4
        p[:min(zeros, n - 1)] = 0.0
        p /= p.sum()
        stream, generator = Stream(entropy), reference(entropy)
        assert_same(stream.choice(n, size=size, replace=True, p=p),
                    generator.choice(n, size=size, replace=True, p=p))
        assert stream.state == state_of(generator)


def first_sentence(message):
    # numpy 2 capitalised these messages and added a pointer to its Notes
    return message.split(".")[0].lower()


@pytest.mark.parametrize("p", [
    [0.5, np.nan, 0.5],
    [0.5, -0.25, 0.75],
    [0.5, 0.25, 0.24],
    [np.inf, 0.0, 0.0],
    [0.0, 0.0, np.inf],
    [np.inf, -np.inf, 1.0],
    [0.5, 0.5, 1e-9],
    [0.5, 0.5, 1e-8],
    [0.5, 0.5, 3e-8],
])
def test_choice_checks_p_as_numpy_does(p):
    try:
        want = reference(0).choice(3, size=4, replace=True, p=p)
    except ValueError as error:
        with pytest.raises(ValueError) as got:
            Stream(0).choice(3, size=4, replace=True, p=p)
        assert first_sentence(str(got.value)) == first_sentence(str(error))
    else:
        assert_same(Stream(0).choice(3, size=4, replace=True, p=p), want)


CALLS = st.one_of(
    st.tuples(st.just("random"), st.none() | st.integers(0, 9)),
    st.tuples(st.just("integers"), st.integers(0, 4), st.sampled_from([1, 2, 3, 17, 2**31 + 1])),
    st.tuples(st.just("rows"), st.integers(0, 9), st.lists(
        st.sampled_from([1, 2, 16, 31, 2**31 + 1, 2**32]), min_size=1, max_size=4)),
    st.tuples(st.just("choice"), st.integers(1, 30), st.integers(0, 20)),
)


@settings(max_examples=200, deadline=None)
@given(entropies, st.lists(CALLS, max_size=12))
def test_any_sequence_of_calls(entropy, calls):
    """Scalar and array draws interleaved as the GA's operators make them:
    the same numbers, and the same state after every call."""
    stream, generator = Stream(entropy), reference(entropy)
    for call in calls:
        if call[0] == "random":
            got, want = stream.random(call[1]), generator.random(call[1])
        elif call[0] == "integers":
            low, span = call[1], call[2]
            got, want = stream.integers(low, low + span), generator.integers(low, low + span)
        elif call[0] == "rows":
            rows, spans = call[1], call[2]
            lows = np.arange(1, len(spans) + 1)
            highs = lows + np.array(spans)
            got = stream.integers(lows, highs, size=(rows, len(spans)))
            want = generator.integers(lows, highs, size=(rows, len(spans)))
        else:
            n, size = call[1], call[2]
            p = np.exp(np.linspace(0.0, 3.0, n))
            p /= p.sum()
            got = stream.choice(n, size=size, replace=True, p=p)
            want = generator.choice(n, size=size, replace=True, p=p)
        assert_same(got, want)
        assert stream.state == state_of(generator)


GUARDED = ("numpy.random", "secrets", "_hashlib")


def test_optimize_never_imports_numpy_random(tmp_path):
    """`optimize` in each mode, run as the CLI runs it, loads none of
    numpy.random, secrets or OpenSSL's _hashlib, and importing macdlab
    builds no jump table. In a fresh interpreter, since pytest and
    hypothesis import numpy.random themselves; a numpy that loads
    numpy.random at its own import (numpy 1.x) is not held against it."""
    closes = random_walk_closes(np.random.default_rng(3), 300, vol=0.02)
    data = tmp_path / "prices.csv"
    data.write_text("code,date,close\n" + "".join(
        f"AAA,{date(2014, 1, 2) + timedelta(days=i)},{float(c)!r}\n" for i, c in enumerate(closes)),
        encoding="utf-8")
    probe = (
        "import json, sys\n"
        "import numpy\n"
        f"guarded = {GUARDED!r}\n"
        "before = {m for m in guarded if m in sys.modules}\n"
        "from macdlab import streams\n"
        "from macdlab.cli import main\n"
        "tables = streams._jump_table.cache_info().currsize\n"
        "for mode in ('raw', 'denoised', 'divergence'):\n"
        "    argv = ['optimize', '--mode', mode, '--data', sys.argv[1],\n"
        "            '--out', sys.argv[2] + '/' + mode, '--pop', '30', '--max-gen', '3']\n"
        "    assert main(argv) == 0\n"
        "print(json.dumps({'tables_at_import': tables,\n"
        "                  'loaded': sorted(m for m in guarded\n"
        "                                   if m in sys.modules and m not in before)}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(streams.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", probe, str(data), str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == {"tables_at_import": 0, "loaded": []}
