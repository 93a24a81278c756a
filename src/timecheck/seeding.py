"""Deterministic seed derivation, and the first words of many streams at once.

All randomness in a run flows from one master seed through named sub-seeds,
so any report can be regenerated byte-for-byte. Derivation hashes
(master, label, index) instead of splitting RNG streams, which keeps trial
seeds independent of scheduling order.

A priced trial draws its noise from its own stream, random.Random(seed) for
the trial's 64-bit seed, and seeding a Mersenne Twister costs more than the
rest of the trial. first_words gives the first outputs of a batch of such
streams at once, and device.NoiseModel.sample_words turns those words into
noise draws (its docstring gives the word-to-draw mapping). The words are
exact, not an approximation:

- CPython seeds random.Random(n), for an int n >= 0, with MT19937's
  init_by_array (Matsumoto & Nishimura, "Mersenne Twister", ACM TOMACS 8(1),
  1998). Its key is the 32-bit words of n, least significant first: one word
  for n < 2^32 (0 included), two for n < 2^64. The random module documents
  that seed(int) and the sequence random() returns stay the same across
  Python versions.
- first_words runs that key schedule on every seed of a batch at once with
  numpy, then the first twist and the tempering, in the same uint32
  arithmetic. The first count outputs read only state words 0..count and
  397..396+count, so only those are kept. The second key loop needs the
  first loop's words again, so the first loop runs twice, once alone to the
  word it leaves at index 1 and once in lockstep with the second loop: the
  working set is a few words a seed, not the 624 words of a state. Below
  NUMPY_SEEDING_MIN seeds, the fixed cost of the ~7,500 numpy calls this
  takes exceeds seeding each stream with CPython itself, so first_words does
  that.
"""

import functools
import hashlib
import random

import numpy as np


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """64-bit sub-seed for (master, label, index)."""
    h = hashlib.blake2b(f"{master}:{label}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def derive_seeds(master: int, label: str, count: int):
    """derive_seed(master, label, i) for i in range(count), in order.

    The hash of the shared "master:label:" prefix is computed once and copied
    for each index, so a long run of trial seeds skips the formatting and the
    prefix hashing derive_seed repeats per call.
    """
    prefix = hashlib.blake2b(f"{master}:{label}:".encode(), digest_size=8)
    for index in range(count):
        h = prefix.copy()
        h.update(str(index).encode())
        yield int.from_bytes(h.digest(), "little")


def sub_rng(master: int, label: str, index: int = 0) -> random.Random:
    return random.Random(derive_seed(master, label, index))


def random_words(seed: int, count: int) -> np.ndarray:
    """count seeded pseudorandom 64-bit words, read-only: the words of count
    getrandbits(64) draws, from one draw of 64 * count bits (CPython fills
    the low 32-bit word first), with no Python int per word."""
    bits = random.Random(seed).getrandbits(64 * count)
    return np.frombuffer(bits.to_bytes(8 * count, "little"), dtype="<u8")


# --- MT19937 seeding, vectorized over seeds ---------------------------------

_N, _M = 624, 397  # state words; offset of the word each twist mixes in
_U32 = np.uint32

# Words of each priced stream: a gaussian draw and an NMI draw take 6, a
# uniform draw and an NMI draw 4, an empirical draw and an NMI draw usually 3.
STREAM_WORDS = 8

# Batch size from which first_words seeds with numpy. The numpy pass costs a
# fixed ~10 ms and CPython ~8 us a seed, so they cross near 1,300 seeds
# (2-vCPU Xeon host, medians of interleaved runs: BENCH_batched_seeding.json).
NUMPY_SEEDING_MIN = 1300


@functools.cache
def _genrand_state() -> tuple:
    """init_genrand(19650218): the state init_by_array starts from."""
    mt = [19650218]
    for i in range(1, _N):
        mt.append((1812433253 * (mt[-1] ^ (mt[-1] >> 30)) + i) & 0xFFFFFFFF)
    return tuple(_U32(v) for v in mt)


def _init_by_array_words(lo, hi, count: int):
    """Words 0..count and 397..396+count of init_by_array's state, one row each.

    lo and hi are the low and high 32-bit key words of each seed, hi 0 where
    the key has one word. Every step updates all seeds in place.
    """
    init = _genrand_state()
    n = lo.size
    c1, c2, s30 = _U32(1664525), _U32(1566083941), _U32(30)
    shift, xor, mul, add = np.right_shift, np.bitwise_xor, np.multiply, np.add
    # Loop 1 adds key[j] + j, j cycling over the key: a one-word key adds lo
    # at every step, a two-word key lo and hi + 1 by turns.
    adds = (lo, np.where(hi != 0, hi + _U32(1), lo))

    def loop1(prev, i, out):  # mt[i] after loop 1's step at i, from mt[i-1]
        shift(prev, s30, out=out)
        xor(out, prev, out=out)
        mul(out, c1, out=out)
        xor(out, init[i], out=out)
        add(out, adds[(i - 1) & 1], out=out)

    # Loop 1 alone: 623 steps from i = 1, then a 624th at i = 1 again, with
    # mt[0] = mt[623]; that last one leaves index 1 as loop 2 finds it.
    first = np.empty(n, np.uint32)
    loop1(np.full(n, init[0], np.uint32), 1, first)
    prev, cur = first.copy(), np.empty(n, np.uint32)
    for i in range(2, _N):
        loop1(prev, i, cur)
        prev, cur = cur, prev
    mt1 = np.empty(n, np.uint32)
    shift(prev, s30, out=mt1)
    xor(mt1, prev, out=mt1)
    mul(mt1, c1, out=mt1)
    xor(mt1, first, out=mt1)
    add(mt1, adds[(_N - 1) & 1], out=mt1)

    # Loop 2 at i = 2..623, with loop 1 run again one step ahead: row 0 holds
    # loop 1's mt[i-1], row 1 loop 2's mt[i-1]; both rows share the shift,
    # xor and multiply of the step, each with its own multiplier.
    mults = np.array([[c1], [c2]], np.uint32)
    a, b = np.empty((2, n), np.uint32), np.empty((2, n), np.uint32)
    a[0], a[1] = first, mt1
    sides = ((a, b, b[0], b[1]), (b, a, a[0], a[1]))
    rows = {i: r for r, i in enumerate([*range(2, count + 1), *range(_M, _M + count)])}
    kept = np.empty((len(rows) + 2, n), np.uint32)
    for i in range(2, _N):
        state, nxt, one, two = sides[i & 1]
        shift(state, s30, out=nxt)
        xor(nxt, state, out=nxt)
        mul(nxt, mults, out=nxt)
        xor(one, init[i], out=one)
        add(one, adds[(i - 1) & 1], out=one)
        xor(two, one, out=two)
        np.subtract(two, _U32(i), out=two)
        if i in rows:
            kept[rows[i]] = two
    # Loop 2's last step is at i = 1, with mt[0] = mt[623]; then mt[0] is set.
    last = sides[(_N - 1) & 1][3]
    one = kept[-2]
    shift(last, s30, out=one)
    xor(one, last, out=one)
    mul(one, c2, out=one)
    xor(one, mt1, out=one)
    np.subtract(one, _U32(1), out=one)
    kept[-1] = 0x80000000
    return {0: kept[-1], 1: one, **{i: kept[r] for i, r in rows.items()}}


def first_words(seeds, count: int) -> np.ndarray:
    """(len(seeds), count) uint32: row i is random.Random(seeds[i])'s first count
    getrandbits(32) draws.

    seeds are ints in [0, 2^64). count is at most 227, the outputs one twist
    computes from words of the seeded state alone.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if not 0 < count <= _N - _M:
        raise ValueError(f"count must be in [1, {_N - _M}], got {count}")
    if seeds.size < NUMPY_SEEDING_MIN:
        rng = random.Random(0)
        buf = bytearray()
        for seed in seeds.tolist():
            rng.seed(seed)
            buf += rng.getrandbits(32 * count).to_bytes(4 * count, "little")
        return np.frombuffer(buf, "<u4").reshape(seeds.size, count)
    mt = _init_by_array_words((seeds & np.uint64(0xFFFFFFFF)).astype(np.uint32),
                              (seeds >> np.uint64(32)).astype(np.uint32), count)
    out = np.empty((seeds.size, count), np.uint32)
    upper, lower = _U32(0x80000000), _U32(0x7FFFFFFF)
    for k in range(count):
        # twist word k, then temper it
        y = (mt[k] & upper) | (mt[k + 1] & lower)
        w = mt[k + _M] ^ (y >> _U32(1)) ^ ((y & _U32(1)) * _U32(0x9908B0DF))
        w ^= w >> _U32(11)
        w ^= (w << _U32(7)) & _U32(0x9D2C5680)
        w ^= (w << _U32(15)) & _U32(0xEFC60000)
        w ^= w >> _U32(18)
        out[:, k] = w
    return out
