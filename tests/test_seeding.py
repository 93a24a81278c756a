"""Tests for seed derivation and batch seeding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.seeding import (
    NUMPY_SEEDING_MIN,
    STREAM_WORDS,
    derive_seed,
    derive_seeds,
    first_words,
    random_words,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.text(max_size=24), st.integers(0, 120))
def test_derive_seeds_equal_derive_seed(master, label, count):
    assert list(derive_seeds(master, label, count)) == [
        derive_seed(master, label, i) for i in range(count)]


# --- batch seeding ----------------------------------------------------------

def _draws(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


# one-word keys (0 and 2^32 - 1) and two-word keys at both ends
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]
ANY_SEED = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1))


@pytest.mark.parametrize("size", [len(EDGE_SEEDS), 40, NUMPY_SEEDING_MIN - 1,
                                  NUMPY_SEEDING_MIN, NUMPY_SEEDING_MIN + 333])
@settings(max_examples=8, deadline=None)
@given(st.lists(ANY_SEED, max_size=8), st.integers(), st.sampled_from([1, 2, STREAM_WORDS, 227]))
def test_first_words_equal_random_draws(size, drawn, master, count):
    seeds = (EDGE_SEEDS + drawn)[:size]
    seeds += list(derive_seeds(master, "pad", size - len(seeds)))
    got = first_words(seeds, count)
    assert got.shape == (size, count) and got.dtype == np.uint32
    assert got.tolist() == [_draws(s, count) for s in seeds]


@pytest.mark.parametrize("count", [0, 228])
def test_first_words_count_is_one_twist(count):
    with pytest.raises(ValueError, match="count"):
        first_words([1], count)


@pytest.mark.parametrize("count", [0, 1, 2, 3, 2014, 24576])
def test_random_words_equal_per_word_draws(count):
    rng = random.Random(99)
    words = random_words(99, count)
    assert words.shape == (count,) and words.dtype == np.uint64
    assert words.tolist() == [rng.getrandbits(64) for _ in range(count)]
