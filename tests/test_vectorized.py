"""Tests for the vectorized M61 evaluator, the array permutation and the dispatch."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecheck.checkpoint import MemoryImage, scan_words
from timecheck.coeffs import RandomSeeds
from timecheck.device import Scenario
from timecheck.engine import (
    ChallengeSpec,
    evaluate,
    multipass,
    multipass_m61,
    multipass_naive,
    random_spec,
)
from timecheck.errors import SpecOutOfField
from timecheck.field import M61, FieldParams, m61_dot, m61_mul, m61_reduce
from timecheck.permutation import perm_new
from timecheck.protocol import ChallengeMessage, DeviceEndpoint, FrameDecoder

WORD_MAX = (1 << 64) - 1
PRIMES = (13, 1009, M61)

field_elements = st.one_of(st.sampled_from((0, 1, M61 - 1)), st.integers(0, M61 - 1))
words64 = st.one_of(st.just(WORD_MAX), st.just(0), st.integers(0, WORD_MAX))


@st.composite
def m61_instances(draw):
    d = draw(st.integers(1, 400))
    passes = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    seeds = tuple(draw(st.lists(field_elements, min_size=k, max_size=k)))
    spec = ChallengeSpec(seeds=RandomSeeds(seeds, FieldParams(M61, draw(field_elements))),
                         perm_seed=draw(st.integers(0, WORD_MAX)), passes=passes)
    words = draw(st.lists(words64, min_size=d, max_size=d))
    return words, spec


@settings(max_examples=100, deadline=None)
@given(m61_instances())
def test_vectorized_equals_naive(instance):
    words, spec = instance
    got = multipass_m61(np.array(words, dtype=np.uint64), spec)
    want = multipass_naive(MemoryImage(words), spec)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5000), rounds=st.integers(1, 5), seed=st.integers(0, WORD_MAX))
@example(n=1, rounds=4, seed=0)
@example(n=2, rounds=1, seed=WORD_MAX)
@example(n=3, rounds=3, seed=12345)      # bits floored at 2, cycle walking
@example(n=1 << 11, rounds=4, seed=99)   # power of two: no walking
@example(n=4097, rounds=5, seed=7)       # odd bit width, walks for almost half
def test_array_permutation_equals_scalar(n, rounds, seed):
    gen = perm_new(n, seed, rounds)
    table = gen.table()
    assert table.dtype == np.uint64
    assert table.tolist() == [gen.get(i) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(a=st.lists(field_elements, min_size=1, max_size=50), b=field_elements)
def test_m61_mul_exact(a, b):
    arr = np.array(a, dtype=np.uint64)
    assert m61_mul(arr, np.uint64(b)).tolist() == [v * b % M61 for v in a]
    assert m61_mul(arr, arr[::-1]).tolist() == [u * v % M61 for u, v in zip(a, a[::-1])]


@settings(deadline=None)
@given(st.lists(field_elements, min_size=1, max_size=300), st.integers(0, 1000))
def test_m61_dot_exact(a, seed):
    b = [random.Random(seed + i).randrange(M61) for i in range(len(a))]
    want = sum(u * v for u, v in zip(a, b)) % M61
    assert m61_dot(np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)) == want


def test_m61_dot_extreme_values():
    top = np.full(5000, M61 - 1, dtype=np.uint64)
    assert m61_dot(top, top) == 5000 * (M61 - 1) ** 2 % M61


@given(st.lists(words64, min_size=1, max_size=50))
def test_m61_reduce_exact(words):
    assert m61_reduce(np.array(words, dtype=np.uint64)).tolist() == [w % M61 for w in words]


def test_extreme_instances_match_streaming():
    rng = random.Random(0x5CA1E)
    for d, passes in ((37, 2), (2048, 8), (5000, 3), (1, 1), (2, 5), (8193, 2)):
        for x in (0, 1, M61 - 1, rng.randrange(M61)):
            seeds = RandomSeeds(tuple(rng.randrange(M61) for _ in range(3)), FieldParams(M61, x))
            spec = ChallengeSpec(seeds=seeds, perm_seed=rng.getrandbits(64), passes=passes)
            words = [WORD_MAX] + [rng.getrandbits(64) for _ in range(d - 1)]
            got = multipass_m61(np.array(words, dtype=np.uint64), spec)
            assert got == multipass(MemoryImage(words), spec), (d, passes, x)


def test_vectorized_rejects_other_primes():
    spec = random_spec(1009, 2, 1, random.Random(1))
    with pytest.raises(ValueError):
        multipass_m61(np.zeros(4, dtype=np.uint64), spec)


def test_dispatch_raises_spec_out_of_field():
    spec = random_spec(13, 2, 1, random.Random(2))
    with pytest.raises(SpecOutOfField):
        evaluate(np.zeros(13, dtype=np.uint64), spec)


def test_c01_family_through_dispatch():
    # the c01 instance family, evaluated by the dispatch both endpoint
    # methods use: every prime, exact against the naive oracle
    rng = random.Random(0xACCE5501)
    for i in range(1000):
        p = PRIMES[i % 3]
        passes = rng.randint(1, 4)
        d = rng.randint(1, max(1, min(64, (p - 1) // passes)))
        spec = random_spec(p, rng.randint(1, 4), passes, rng)
        words = [rng.getrandbits(64) for _ in range(d)]
        got = evaluate(np.array(words, dtype=np.uint64), spec)
        assert got == multipass_naive(MemoryImage(words), spec), (p, passes, d)


@pytest.mark.parametrize("p", PRIMES)
def test_endpoints_match_naive_for_every_prime(p):
    sc = Scenario(name=f"tiny-{p}", image_words=3, register_count=1, passes=2,
                  prime=p, k=3, image_seed=p)
    ep = DeviceEndpoint(sc, master_seed=1)
    rng = random.Random(p)
    for _ in range(20):
        spec = random_spec(p, sc.k, sc.passes, rng, sc.region_id)
        naive = multipass_naive(MemoryImage(scan_words(ep.checkpoint)), spec)
        assert ep.expected_result(spec) == naive
        _, reply = ep.handle_challenge(ChallengeMessage(1, spec))[1]
        assert FrameDecoder().feed(reply)[0].accumulator == naive.accumulator
