"""Tests for seed derivation and batch-seeded streams."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.device import NoiseModel
from timecheck.seeding import (
    NUMPY_SEEDING_MIN,
    STREAM_WORDS,
    ReplayRandom,
    derive_seed,
    derive_seeds,
    first_words,
    replay_streams,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**70, 2**70), st.text(max_size=24), st.integers(0, 120))
def test_derive_seeds_equal_derive_seed(master, label, count):
    assert list(derive_seeds(master, label, count)) == [
        derive_seed(master, label, i) for i in range(count)]


# --- batch seeding and replayed streams --------------------------------------

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


NOISE_MODELS = [
    NoiseModel("gaussian", sigma=185.0),
    NoiseModel("gaussian", sigma=150.0, drift="linear", drift_us_per_trial=3.25, nmi_prob=0.25),
    NoiseModel("uniform", width=320.0),
    NoiseModel("uniform", width=90.0, drift="step", drift_step_at=2, drift_step_us=400.0,
               nmi_prob=0.5),
    NoiseModel("empirical", values=(-200.0, -100.0, 0.0, 100.0, 200.0)),
    # 129 values: randrange rejects almost half its 8-bit draws
    NoiseModel("empirical", values=tuple(float(v) for v in range(129)), drift="linear",
               drift_us_per_trial=-2.0, nmi_prob=0.9, nmi_us=7.0),
    NoiseModel("empirical", values=(5.0,), drift="step", drift_step_at=1, drift_step_us=3.0,
               nmi_prob=1.0),
]


@settings(max_examples=60, deadline=None)
@given(st.lists(ANY_SEED, min_size=1, max_size=6), st.integers(0, 40))
def test_replayed_streams_sample_every_noise_model_like_random(seeds, trial_id):
    # three samples a stream: the later ones draw past the replayed words
    for noise in NOISE_MODELS:
        streams = replay_streams(np.array(seeds, dtype=np.uint64))
        for seed, rng in zip(seeds, streams, strict=True):
            assert isinstance(rng, random.Random)
            want = random.Random(seed)
            for t in range(trial_id, trial_id + 3):
                assert noise.sample(rng, t) == noise.sample(want, t), (noise, seed)


DRAWS = st.one_of(
    st.tuples(st.just("random"), st.just(())),
    st.tuples(st.just("getrandbits"), st.tuples(st.integers(0, 70))),
    st.tuples(st.just("randrange"), st.tuples(st.integers(1, 2**40))),
    st.tuples(st.just("gauss"), st.tuples(st.just(3.0), st.just(2.5))),
    st.tuples(st.just("uniform"), st.tuples(st.just(-9.0), st.just(4.0))),
)


@settings(max_examples=200, deadline=None)
@given(ANY_SEED, st.integers(0, STREAM_WORDS), st.lists(DRAWS, max_size=12))
def test_replay_runs_on_past_its_words(seed, kept, draws):
    # kept of the first STREAM_WORDS words replayed, then the real generator
    rng = ReplayRandom(seed, first_words([seed], STREAM_WORDS)[0].tolist()[:kept])
    want = random.Random(seed)
    for name, args in draws + [("random", ())] * 5:
        assert getattr(rng, name)(*args) == getattr(want, name)(*args), (name, args)
