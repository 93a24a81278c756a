"""Tests for the vectorized M61 evaluator, the array permutation and the dispatch."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecheck import engine
from timecheck.checkpoint import MemoryImage, scan_words
from timecheck.coeffs import RandomSeeds
from timecheck.device import Scenario, desk_scenario
from timecheck.engine import (
    _TILE,
    ChallengeSpec,
    evaluate,
    multipass,
    multipass_m61,
    multipass_naive,
    random_spec,
)
from timecheck.errors import SpecOutOfField
from timecheck.field import M61, FieldParams, m61_add, m61_muladd_small, m61_mul, m61_reduce
from timecheck.permutation import PermutationGenerator
from timecheck.protocol import (
    ChallengeMessage,
    DeviceEndpoint,
    FrameDecoder,
    LoopbackChannel,
    issue_challenge,
)

WORD_MAX = (1 << 64) - 1
PRIMES = (13, 1009, M61)

field_elements = st.one_of(st.sampled_from((0, 1, M61 - 1)), st.integers(0, M61 - 1))
words64 = st.one_of(st.just(WORD_MAX), st.just(0), st.integers(0, WORD_MAX))


@st.composite
def m61_instances(draw):
    # P > k, P = k and P < k all occur: the pass differences start from
    # min(k, P) Horner evaluations
    d = draw(st.integers(1, 400))
    passes = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
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
@example(n=20000, rounds=4, seed=0xC0FFEE)  # 2^15 blocks: several domain tiles
def test_array_permutation_equals_scalar(n, rounds, seed):
    gen = PermutationGenerator(n, seed, rounds)
    pi = gen.indices()
    assert pi.dtype == np.uint32
    assert pi.tolist() == [gen.get(i) for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(a=st.lists(field_elements, min_size=1, max_size=50), b=field_elements)
def test_m61_mul_exact(a, b):
    arr = np.array(a, dtype=np.uint64)
    assert m61_mul(arr, np.uint64(b)).tolist() == [v * b % M61 for v in a]
    assert m61_mul(arr, arr[::-1]).tolist() == [u * v % M61 for u, v in zip(a, a[::-1])]


@settings(max_examples=200, deadline=None)
@given(s=st.lists(st.integers(0, M61 + 7), min_size=1, max_size=40),
       b=st.one_of(st.just((1 << 32) - 1), st.integers(1, (1 << 32) - 1)),
       c=field_elements)
def test_m61_muladd_small_exact(s, b, c):
    # s may be a folded residue up to 2^61 + 7, the kernel's bound
    arr = np.array(s, dtype=np.uint64)
    bs = np.full(len(s), b, dtype=np.uint64)
    m61_muladd_small(arr, bs, c, np.empty_like(arr), np.empty_like(arr))
    assert all(v < M61 + 8 for v in arr.tolist())
    assert [v % M61 for v in arr.tolist()] == [(u * b + c) % M61 for u in s]


@given(st.lists(st.tuples(field_elements, field_elements), min_size=1, max_size=50))
def test_m61_add_exact(pairs):
    a = np.array([u for u, _ in pairs], dtype=np.uint64)
    b = np.array([v for _, v in pairs], dtype=np.uint64)
    m61_add(a, b, np.empty_like(a))
    assert a.tolist() == [(u + v) % M61 for u, v in pairs]


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


def test_coefficient_equal_to_p_is_made_canonical():
    # R(1) = 1 + (p - 1) = p: the Horner sum for address 0 is exactly p
    # after its fold, and only the canonical residue 0 may reach the XOR
    # (words of all ones or all zeros would hide it: ~s = 7 - s mod p)
    words = [1, 2, 3, 4, 5]
    for x in (1, 12345):
        spec = ChallengeSpec(seeds=RandomSeeds((1, M61 - 1), FieldParams(M61, x)),
                             perm_seed=3, passes=2)
        got = multipass_m61(np.array(words, dtype=np.uint64), spec)
        assert got == multipass_naive(MemoryImage(words), spec), x


class _TablePermutation:
    """pi from the scalar Feistel get, looked up from a list."""

    def __init__(self, n, seed):
        gen = PermutationGenerator(n, seed)
        self.n = n
        self.get = [gen.get(i) for i in range(n)].__getitem__


@pytest.mark.parametrize("d", (_TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1, 24640))
@pytest.mark.parametrize("passes", (1, 2, 9))
def test_tile_edges_match_streaming(d, passes):
    # tile boundaries, a partial last tile and the full SRAM size, with
    # all-ones words and seeds of p - 1
    words = [WORD_MAX] * d
    perm = _TablePermutation(d, 0xC0FFEE + d)
    for k in (1, 4):
        for x in (0, 1, M61 - 1):
            spec = ChallengeSpec(seeds=RandomSeeds((M61 - 1,) * k, FieldParams(M61, x)),
                                 perm_seed=0xC0FFEE + d, passes=passes)
            got = multipass_m61(np.array(words, dtype=np.uint64), spec)
            assert got == multipass(MemoryImage(words), spec, perm), (k, x)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 5000), x=field_elements, perm_seed=st.integers(0, WORD_MAX))
@example(d=1, x=0, perm_seed=0)
@example(d=_TILE + 1, x=M61 - 1, perm_seed=WORD_MAX)
def test_cached_weights_equal_reference(d, x, perm_seed):
    gen = PermutationGenerator(d, perm_seed)
    want = [0] * d
    for i in range(d):
        want[gen.get(i)] = pow(x, i, M61)
    first = engine._weights_m61(d, x, perm_seed)
    again = engine._weights_m61(d, x, perm_seed)  # a cache hit
    assert first.dtype == np.uint64
    assert first.tolist() == want
    assert again.tolist() == want


def test_cached_weights_are_read_only():
    weight = engine._weights_m61(64, 3, 11)
    with pytest.raises(ValueError):
        weight[0] = 1
    with pytest.raises(ValueError):
        weight.flags.writeable = True


def test_weight_cache_is_bounded():
    for seed in range(50):
        engine._weights_m61(100 + seed, 3, seed)
    info = engine._weights_m61.cache_info()
    assert info.maxsize == 2
    assert info.currsize <= 2


def test_loopback_session_builds_scan_order_once(monkeypatch):
    # the verifier's expected_result and the simulated device's
    # handle_challenge evaluate the same challenge in one process
    calls = []
    indices = PermutationGenerator.indices

    def counted(gen):
        calls.append(gen.n)
        return indices(gen)

    monkeypatch.setattr(PermutationGenerator, "indices", counted)
    sc = desk_scenario()
    verifier = DeviceEndpoint(sc, master_seed=1)
    chan = LoopbackChannel(DeviceEndpoint(sc, master_seed=2))
    rng = random.Random(0x5E55)
    spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
    expected = verifier.expected_result(spec)
    timed = issue_challenge(chan, spec, rng=rng)
    assert timed.response.accumulator == expected.accumulator
    assert calls == [sc.image_words + sc.register_count]


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_working_set_bounded():
    rng = random.Random(0x7E57)
    words = np.array([rng.getrandbits(64) for _ in range(24640)], dtype=np.uint64)
    peaks = {passes: _peak_bytes(lambda: multipass_m61(words, random_spec(M61, 4, passes, rng)))
             for passes in (3, 50)}
    assert peaks[3] <= 1.25e6
    # nothing but a few P x 12 accumulators depends on the pass count
    assert abs(peaks[50] - peaks[3]) <= 8 * _TILE


def test_vectorized_rejects_2_32_words(monkeypatch):
    # a zero-stride view: 2^32 words long without the memory behind it; the
    # weight build must never start on it
    def no_weights(*args):
        raise AssertionError("weight build started on 2^32 words")

    monkeypatch.setattr(engine, "_weights_m61", no_weights)
    words = np.broadcast_to(np.uint64(0), (1 << 32,))
    with pytest.raises(ValueError, match="fewer than 2\\^32 words"):
        multipass_m61(words, random_spec(M61, 2, 1, random.Random(3)))


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
