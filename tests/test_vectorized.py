"""Tests for the vectorized M61 evaluator, the array permutation and the dispatch."""

import contextlib
import os
import random
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timecheck import engine
from timecheck.checkpoint import MemoryImage, scan_words
from timecheck.coeffs import RandomSeeds
from timecheck.device import Scenario, attack_scenario, builtin_scenario, desk_scenario
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
    TcpChannel,
    issue_challenge,
    serve_device,
)

WORD_MAX = (1 << 64) - 1
PRIMES = (13, 1009, M61)
P64 = (1 << 64) - 59  # the largest 64-bit prime, evaluated by the streaming multipass
MEMO_PRIMES = (M61, P64)


def elements(p):
    return st.one_of(st.sampled_from((0, 1, p - 1)), st.integers(0, p - 1))


field_elements = elements(M61)
words64 = st.one_of(st.just(WORD_MAX), st.just(0), st.integers(0, WORD_MAX))


@st.composite
def instances(draw, p=M61):
    # P > k, P = k and P < k all occur: the pass differences start from
    # min(k, P) Horner evaluations
    d = draw(st.integers(1, 400))
    passes = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    seeds = tuple(draw(st.lists(elements(p), min_size=k, max_size=k)))
    spec = ChallengeSpec(seeds=RandomSeeds(seeds, FieldParams(p, draw(elements(p)))),
                         perm_seed=draw(st.integers(0, WORD_MAX)), passes=passes)
    words = draw(st.lists(words64, min_size=d, max_size=d))
    return words, spec


@settings(max_examples=100, deadline=None)
@given(instances())
def test_vectorized_equals_naive(instance):
    words, spec = instance
    got = multipass_m61(np.array(words, dtype=np.uint64), spec)
    want = multipass_naive(MemoryImage(words), spec)
    assert got == want


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 5000), seed=st.integers(0, WORD_MAX))
@example(n=1, seed=0)
@example(n=2, seed=WORD_MAX)
@example(n=3, seed=12345)      # bits floored at 2, cycle walking
@example(n=1 << 11, seed=99)   # power of two: no walking
@example(n=4097, seed=7)       # odd bit width, walks for almost half
@example(n=20000, seed=0xC0FFEE)  # 2^15 blocks: several domain tiles
def test_array_permutation_equals_scalar(n, seed):
    gen = PermutationGenerator(n, seed)
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


def test_m61_accumulator_pinned():
    # a fixed value at the SRAM word count: the other M61 tests compare
    # engines that share one scan order
    rng = random.Random(24640)
    spec = random_spec(M61, 4, 3, rng)
    words = np.array([rng.getrandbits(64) for _ in range(24640)], dtype=np.uint64)
    assert multipass_m61(words, spec).accumulator == 180955120824669888


def test_sram_baseline_full_challenge_pinned():
    # one full 500-pass sram-baseline challenge: P >= k, so every pass
    # difference is used, over 7 tiles, so every tile difference too
    sc = builtin_scenario("sram-baseline")
    spec = random_spec(sc.prime, sc.k, sc.passes, random.Random(500), sc.region_id)
    words = np.array(scan_words(DeviceEndpoint(sc, master_seed=1).checkpoint), dtype=np.uint64)
    assert (sc.passes, sc.k, words.size) == (500, 4, 24640)
    assert multipass_m61(words, spec).accumulator == 1253080396173911172


@st.composite
def tiled_instances(draw):
    # a tile of 8-64 words, so that up to 400 words span up to 50 tiles;
    # P < k and P >= k both occur, and so do seeds of p - 1 and all-ones words
    tile = draw(st.integers(8, 64))
    d = draw(st.integers(1, 400))
    passes = draw(st.integers(1, 12))
    k = draw(st.integers(1, 6))
    seeds = draw(st.one_of(st.just((M61 - 1,) * k),
                           st.lists(field_elements, min_size=k, max_size=k).map(tuple)))
    x = draw(st.sampled_from((0, 1, M61 - 1)))
    words = draw(st.one_of(st.just([WORD_MAX] * d), st.lists(words64, min_size=d, max_size=d)))
    spec = ChallengeSpec(seeds=RandomSeeds(seeds, FieldParams(M61, x)),
                         perm_seed=draw(st.integers(0, WORD_MAX)), passes=passes)
    return tile, words, spec


def _extreme(tile, d, passes, k):
    spec = ChallengeSpec(seeds=RandomSeeds((M61 - 1,) * k, FieldParams(M61, M61 - 1)),
                         perm_seed=d, passes=passes)
    return tile, [WORD_MAX] * d, spec


@settings(max_examples=100, deadline=None)
@given(tiled_instances())
@example(_extreme(8, 400, 2, 6))
@example(_extreme(8, 400, 12, 6))
@example(_extreme(8, 17, 12, 6))
@example(_extreme(64, 65, 1, 1))
def test_tile_differences_equal_naive(instance):
    tile, words, spec = instance
    with mock.patch.object(engine, "_TILE", tile):
        got = multipass_m61(np.array(words, dtype=np.uint64), spec)
    assert got == multipass_naive(MemoryImage(words), spec)


@pytest.mark.parametrize("k", (1, 2, 4, 6))
@pytest.mark.parametrize("passes", (1, 3, 12))
def test_horner_runs_on_the_first_tile_only(monkeypatch, k, passes):
    # one tile evaluates only the pass differences, as every tile once did;
    # from k - 1 tiles on, the Horner step count no longer grows
    steps = []
    muladd = engine.m61_muladd_small

    def counted(*args):
        steps.append(args[0].size)
        return muladd(*args)

    monkeypatch.setattr(engine, "m61_muladd_small", counted)
    rng = random.Random(k * 100 + passes)
    count = min(k, passes)

    def horner_steps(d):
        steps.clear()
        words = np.array([rng.getrandbits(64) for _ in range(d)], dtype=np.uint64)
        multipass_m61(words, random_spec(M61, k, passes, rng))
        assert set(steps) <= {_TILE}  # all on the first tile
        return len(steps)

    one_tile = horner_steps(_TILE)
    assert one_tile == sum(k - 1 - m for m in range(count))
    many = sum((k - 1 - m) * (k - m) // 2 for m in range(count))
    assert horner_steps(max(1, k - 1) * _TILE) == horner_steps(6 * _TILE + 64) == many
    if k <= 2:
        assert one_tile == many


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
def test_weights_equal_reference(d, x, perm_seed):
    gen = PermutationGenerator(d, perm_seed)
    want = [0] * d
    for i in range(d):
        want[gen.get(i)] = pow(x, i, M61)
    weight = engine._weights_m61(d, x, perm_seed)
    assert weight.dtype == np.uint64
    assert weight.tolist() == want


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


@pytest.mark.parametrize("seed", [1, 2])
def test_naive_oracle_at_the_sram_snapshot(seed):
    # the benchmark's sram-scan shape, d = 24,640, P = 3, k = 4
    sc = builtin_scenario("sram-baseline")
    ep = DeviceEndpoint(sc, master_seed=seed)
    spec = random_spec(sc.prime, sc.k, 3, random.Random(seed), sc.region_id)
    assert (ep.checkpoint.words.size, spec.params.p, len(spec.seeds.r)) == (24640, M61, 4)
    image = MemoryImage(scan_words(ep.checkpoint), sc.region_id)
    assert multipass_naive(image, spec) == multipass_m61(ep.checkpoint.words, spec)


# The peak resident set (VmHWM, kB) before and after one oracle call at the
# sram-scan shape, in a fresh process: ru_maxrss would carry the forking
# process's peak across exec.
_ORACLE_RSS_GROWTH = """
import random
from timecheck.checkpoint import MemoryImage
from timecheck.engine import multipass_naive, random_spec
def hwm():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
rng = random.Random(3)
image = MemoryImage([rng.getrandbits(64) for _ in range(24640)])
spec = random_spec((1 << 61) - 1, 4, 3, rng)
before = hwm()
multipass_naive(image, spec)
print(hwm() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_naive_oracle_footprint_at_the_sram_shape():
    # 73,920 terms: coefficient and term tables of 8 bytes an entry and the
    # 24,640-entry scan order hold 1.4 MB; lists of boxed ints grew the
    # process by 9 MB
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _ORACLE_RSS_GROWTH], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    assert int(proc.stdout) * 1024 < 4e6


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


# --- the evaluation memo ---------------------------------------------------------

@contextlib.contextmanager
def _counting_scans():
    """Counts evaluate's scans by either kernel (a memo hit does not scan)."""
    with mock.patch.object(engine, "multipass_m61", wraps=engine.multipass_m61) as m61, \
            mock.patch.object(engine, "multipass", wraps=engine.multipass) as streaming:
        yield lambda: m61.call_count + streaming.call_count


def _changed(words, spec, data):
    """(words, spec) with one bit of one word, or one spec field, changed."""
    what = data.draw(st.sampled_from(("word", "r", "x", "perm_seed", "passes", "region_id")))
    seeds, params = spec.seeds, spec.params
    p = params.p
    if what == "word":
        i = data.draw(st.integers(0, len(words) - 1))
        words = words[:i] + [words[i] ^ (1 << data.draw(st.integers(0, 63)))] + words[i + 1:]
    elif what == "r":
        r = list(seeds.r)
        j = data.draw(st.integers(0, len(r) - 1))
        r[j] = (r[j] + data.draw(st.integers(1, p - 1))) % p
        spec = replace(spec, seeds=RandomSeeds(tuple(r), params))
    elif what == "x":
        x = (params.x + data.draw(st.integers(1, p - 1))) % p
        spec = replace(spec, seeds=RandomSeeds(seeds.r, FieldParams(p, x)))
    elif what == "perm_seed":
        spec = replace(spec, perm_seed=spec.perm_seed ^ (1 << data.draw(st.integers(0, 63))))
    elif what == "passes":
        spec = replace(spec, passes=spec.passes + data.draw(st.sampled_from((-1, 1)))
                       if spec.passes > 1 else 2)
    else:
        spec = replace(spec, region_id=spec.region_id + "-other")
    return words, spec


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(MEMO_PRIMES).flatmap(instances))
def test_memo_hit_equals_a_fresh_scan_and_streaming(instance):
    words, spec = instance
    first = evaluate(np.array(words, dtype=np.uint64), spec)
    with _counting_scans() as scans:
        hit = evaluate(np.array(words, dtype=np.uint64), spec)  # equal words, new array
    assert scans() == 0
    assert hit == first
    if spec.params.p == M61:
        assert hit == multipass_m61(np.array(words, dtype=np.uint64), spec)
    assert hit == multipass(MemoryImage(words), spec)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MEMO_PRIMES).flatmap(instances), st.data())
def test_memo_misses_on_any_changed_bit_or_field(instance, data):
    words, spec = instance
    evaluate(np.array(words, dtype=np.uint64), spec)
    words, spec = _changed(words, spec, data)
    with _counting_scans() as scans:
        got = evaluate(np.array(words, dtype=np.uint64), spec)
    assert scans() == 1
    assert got == multipass_naive(MemoryImage(words), spec)


@settings(max_examples=50, deadline=None)
@given(instances(), st.data())
def test_caller_mutation_cannot_change_a_later_result(instance, data):
    words, spec = instance
    i = data.draw(st.integers(0, len(words) - 1))
    flip = np.uint64(1 << data.draw(st.integers(0, 63)))
    base = np.array(words, dtype=np.uint64)
    view = base.view()
    view.flags.writeable = False  # read-only, yet its writable base can change
    first = evaluate(view, spec)
    base[i] ^= flip
    assert evaluate(view, spec) == multipass_naive(MemoryImage(view.tolist()), spec)
    base[i] ^= flip
    assert evaluate(view, spec) == first
    assert first == multipass_naive(MemoryImage(words), spec)


def test_memo_holds_the_last_evaluation():
    rng = random.Random()
    a, b = [(np.array([rng.getrandbits(64) for _ in range(8)], dtype=np.uint64),
             random_spec(M61, 2, 1, rng)) for _ in range(2)]
    evaluate(*a)
    evaluate(*b)
    with _counting_scans() as scans:
        evaluate(*b)
        assert scans() == 0
        evaluate(*a)
        assert scans() == 1


def test_loopback_session_after_expected_result_scans_once(monkeypatch):
    scans = []

    def counted(words, spec):
        scans.append(spec)
        return multipass_m61(words, spec)

    monkeypatch.setattr(engine, "multipass_m61", counted)
    sc = desk_scenario()
    verifier = DeviceEndpoint(sc, master_seed=1)
    honest = LoopbackChannel(DeviceEndpoint(sc, master_seed=2))
    corrupt = LoopbackChannel(DeviceEndpoint(attack_scenario(sc, "corrupt"), master_seed=3))
    rng = random.Random()
    for chan, offset in ((honest, 0), (corrupt, 1)):
        spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
        expected = verifier.expected_result(spec)
        timed = issue_challenge(chan, spec, rng=rng)
        assert timed.response.accumulator == (expected.accumulator + offset) % M61
        assert scans[-1:] == [spec] and scans.count(spec) == 1


def test_concurrent_evaluation_with_a_served_device_stays_exact():
    # serve_device's thread and several verifier threads share the memo;
    # more threads than cores, switching as often as the interpreter allows
    sc = Scenario(name="tiny-m61", image_words=61, register_count=3, passes=3,
                  prime=M61, k=3, image_seed=61)
    device = DeviceEndpoint(sc, master_seed=1)
    verifier = DeviceEndpoint(sc, master_seed=2)
    image = MemoryImage(scan_words(device.checkpoint))
    wrong = []
    stop = threading.Event()

    def verify_elsewhere():
        rng = random.Random()
        while not stop.is_set():
            spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
            words = np.array(image.words, dtype=np.uint64)
            words[rng.randrange(words.size)] ^= np.uint64(rng.getrandbits(64) | 1)
            for w in (words, device.checkpoint.words, words):
                if evaluate(w, spec) != multipass_naive(MemoryImage(w.tolist()), spec):
                    wrong.append(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    others = [threading.Thread(target=verify_elsewhere) for _ in range(4)]
    try:
        with serve_device(device, port=0, time_scale=0.0) as server:
            for t in others:
                t.start()
            chan = TcpChannel(*server.getsockname(), timeout_s=5.0)
            rng = random.Random()
            for _ in range(40):
                spec = random_spec(sc.prime, sc.k, sc.passes, rng, sc.region_id)
                timed = issue_challenge(chan, spec, rng=rng)
                want = multipass_naive(image, spec)
                assert timed.response.accumulator == want.accumulator
                assert verifier.expected_result(spec) == want  # may hit the server's entry
    finally:
        stop.set()
        for t in others:
            t.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in others)
    assert wrong == []
