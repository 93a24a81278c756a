"""Multi-pass randomized polynomial evaluation over a memory image.

The challenge makes P passes over the d-word image. Within a pass, words
are visited in the pseudorandom order pi[d-1], pi[d-2], ..., pi[0] (the
same pi for every pass; it is generated once per challenge). The word at
address idx is masked with the on-demand coefficient for global index
pass*d + idx, reduced into the field, and folded into a single Horner
accumulator:

    idx    = pi[d-1-i]
    term   = (v[idx] XOR s[pass*d + idx]) mod p
    result = (result * x + term) mod p

Coefficient indices never repeat across passes, so a pass cannot be
replayed from a previous one. The XOR happens in 64-bit space and may
exceed p, so the term is reduced mod p before entering Horner; the naive
oracle below applies the identical rule.

The streaming path keeps only the accumulator, loop counters, the seeds,
and one coefficient at a time. It never materializes a coefficient array
or a permuted copy of the image; that constant working set is the security
argument, and tests assert it structurally.

The verifier and the simulated device do not run the streaming loop for
p = M61: both go through evaluate(), which hands M61 challenges to the
vectorized multipass_m61 and every other prime to multipass. multipass_m61
is exactly equal to multipass; the streaming multipass stays the
constant-working-set reference for what a real device computes.

multipass_m61 works on numpy uint64 arrays in tiles of _TILE words:

- Weights. Horner over pi[d-1], ..., pi[0] gives address pi[i] the weight
  x^i, so a pass is one dot product of its terms with a d-word weight
  array. pi comes from PermutationGenerator.indices(): per-round lookup
  tables encrypt the block domain [0, 2^bits) into one uint32 table, and
  cycle walking gathers from it. The weight array (d uint64) and that
  table (2^bits < 2d uint32 for d > 2) are the only buffers growing with d.
  The weights depend only on the public spec fields (d, x, perm_seed), so
  the last two weight arrays built stay in a process-wide cache, read-only.
  A verifier and a simulated device in one process (challenge --target
  sim, LoopbackChannel sessions) evaluate each challenge twice, once for
  expected_result and once in handle_challenge; the second evaluation
  reuses the first one's weights.
- Coefficients. The coefficient polynomial R shifted to the address
  variable b = idx + 1 is R(t*d + b) = sum_m c_m(t) b^m with
  c_m(t) = sum_(j>=m) r_j C(j, m) (t*d)^(j-m), computed in Python ints.
  In b <= d < 2^32 a Horner step needs two 32 x 32-bit multiplies (sums
  below 2^63; field.m61_muladd_small). Only the first min(k, P) forward
  differences over the pass index are evaluated that way, once per tile;
  each later pass advances them with min(k, P)-1 modular additions (sums
  below 2^62).
- Dot products. A term is word XOR coefficient, never reduced: the dot
  product only needs its residue mod p. Its four 16-bit limbs times the
  weight's three 21-bit limbs sum exactly in float64 (each sum below
  2^49), and the pass accumulators stay below 2^62 between Mersenne folds.
"""

import functools
import hashlib
import math
import operator
import random
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .checkpoint import MemoryImage
from .coeffs import RandomSeeds
from .errors import PermutationDomainMismatch, SpecOutOfField
from .field import M61, FieldParams, m61_add, m61_canon, m61_fold, m61_mul, m61_muladd_small
from .permutation import PermutationGenerator

# Words per tile in multipass_m61: 32 KB uint64 tiles keep every buffer in
# cache. The float64 limb dot products stay exact for tiles up to 2^16 words.
_TILE = 4096
_LIMB21 = np.uint64((1 << 21) - 1)
_SHIFT21 = np.uint64(21)
_SHIFT42 = np.uint64(42)
# 2^(s + 21*c) mod M61 for a term's 16-bit limb at bit s and a weight's
# 21-bit limb c (2^61 = 1 mod M61). A uint64 viewed as four uint16 lists its
# limbs low first on a little-endian host, high first on a big-endian one.
_LIMB16_SHIFTS = (0, 16, 32, 48) if sys.byteorder == "little" else (48, 32, 16, 0)
_LIMB_SCALES = tuple(pow(2, (s + 21 * c) % 61, M61)
                     for s in _LIMB16_SHIFTS for c in range(3))


@dataclass(frozen=True)
class ChallengeSpec:
    """Everything a device needs to run one challenge session."""

    seeds: RandomSeeds
    perm_seed: int
    passes: int
    region_id: str = "sram"

    def __post_init__(self):
        if self.passes < 1:
            raise ValueError("need at least one pass")

    @property
    def params(self) -> FieldParams:
        return self.seeds.params

    def digest(self) -> str:
        """Stable hex digest of all challenge parameters, for audit trails."""
        h = hashlib.blake2b(digest_size=16)
        p = self.params
        h.update(struct.pack("<QQQQI", p.p, p.x, self.perm_seed & ((1 << 64) - 1),
                             len(self.seeds.r), self.passes))
        for r in self.seeds.r:
            h.update(struct.pack("<Q", r))
        h.update(self.region_id.encode())
        return h.hexdigest()


@dataclass(frozen=True)
class ChallengeResult:
    """Final accumulator plus audit metadata."""

    accumulator: int
    words_scanned: int
    spec_digest: str


def random_spec(p: int, k: int, passes: int, rng: random.Random,
                region_id: str = "sram") -> ChallengeSpec:
    """Fresh challenge randomness: k seed values, evaluation point, permutation key."""
    params = FieldParams(p, rng.randrange(p))
    seeds = RandomSeeds(tuple(rng.randrange(p) for _ in range(k)), params)
    return ChallengeSpec(seeds=seeds, perm_seed=rng.getrandbits(64),
                         passes=passes, region_id=region_id)


def _check_shape(image: MemoryImage, spec: ChallengeSpec, perm) -> int:
    d = image.word_count
    if spec.passes * d > spec.params.p - 1:
        raise SpecOutOfField(
            f"passes*word_count = {spec.passes * d} exceeds p-1 = {spec.params.p - 1}"
        )
    if perm is not None and getattr(perm, "n", None) != d:
        raise PermutationDomainMismatch(
            f"permutation covers [0, {getattr(perm, 'n', None)}), image has {d} words"
        )
    return d


def multipass(image: MemoryImage, spec: ChallengeSpec, perm=None) -> ChallengeResult:
    """Streaming multi-pass Horner evaluation (the production path).

    perm is injectable for tests; by default the keyed generator for
    spec.perm_seed is built over [0, d). Raises SpecOutOfField when the
    coefficient indices would leave the field, PermutationDomainMismatch
    when an injected permutation has the wrong domain.
    """
    d = _check_shape(image, spec, perm)
    if perm is None:
        perm = PermutationGenerator(d, spec.perm_seed)
    # Hot loop: bind everything to locals. Everything held here is O(k):
    # accumulator, counters, the seed tuple, one coefficient.
    words = image.words
    p = spec.params.p
    x = spec.params.x
    r = spec.seeds.r
    kr = range(len(r) - 1, -1, -1)
    get = perm.get
    result = 0
    for pass_no in range(spec.passes):
        pass_base = pass_no * d
        for i in range(d - 1, -1, -1):
            idx = get(i)
            base = pass_base + idx + 1
            s = 0
            for j in kr:
                s = (s * base + r[j]) % p
            result = (result * x + ((words[idx] ^ s) % p)) % p
    return ChallengeResult(result, spec.passes * d, spec.digest())


def multipass_naive(image: MemoryImage, spec: ChallengeSpec, perm=None) -> ChallengeResult:
    """Independent oracle: materialize everything, evaluate by explicit powers.

    Structurally disjoint from the streaming path: builds the full
    coefficient array and the full permuted term sequence, then sums
    term[j] * x^(N-1-j) with the builtin pow. Slow and memory-hungry by design;
    capped at 2^16 words.
    """
    d = _check_shape(image, spec, perm)
    if d > 1 << 16:
        raise ValueError("naive oracle capped at 2^16 words")
    if perm is None:
        perm = PermutationGenerator(d, spec.perm_seed)
    p = spec.params.p
    x = spec.params.x
    r = spec.seeds.r

    coeffs = []
    for index in range(spec.passes * d):
        base = index + 1
        acc = 0
        for j in range(len(r) - 1, -1, -1):
            acc = (acc * base + r[j]) % p
        coeffs.append(acc)

    scan_order = [perm.get(i) for i in range(d - 1, -1, -1)]
    terms = []
    for pass_no in range(spec.passes):
        for idx in scan_order:
            terms.append((image.words[idx] ^ coeffs[pass_no * d + idx]) % p)

    n = len(terms)
    total = 0
    for j, term in enumerate(terms):
        total = (total + term * pow(x, n - 1 - j, p)) % p
    return ChallengeResult(total, n, spec.digest())


def _geometric_m61(ratio: int, count: int) -> np.ndarray:
    """[ratio^0, ..., ratio^(count-1)] mod M61 as uint64; 0^0 is 1."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * ratio % M61)
    return np.array(out, dtype=np.uint64)


@functools.lru_cache(maxsize=2)
def _weights_m61(d: int, x: int, perm_seed: int) -> np.ndarray:
    """The d-word array weight[pi[i]] = x^i mod M61, filled tile by tile.

    A rank splits into i = h*2^s + l with 2^s about sqrt(d), so
    x^i = x^(h*2^s) * x^l is one product of two entries from tables of
    about sqrt(d) powers each. pi is indexed by rank, so the powers of about
    _TILE consecutive ranks are an outer product, scattered through pi.

    Cached process-wide: the weights are a pure function of three public
    challenge fields, so a cache hit returns exactly what a rebuild would.
    The array is read-only (backed by immutable bytes, like the device
    snapshot's scan array), so no caller can change another caller's
    weights. Two entries serve the verifier's expected_result followed by
    the simulated device's handle_challenge for the same challenge, and
    bound the cache at 2 * 8d bytes.
    """
    pi = PermutationGenerator(d, perm_seed).indices()
    s = ((d - 1).bit_length() + 1) // 2
    low = _geometric_m61(x, 1 << s)
    high = _geometric_m61(pow(x, 1 << s, M61), ((d - 1) >> s) + 1)
    rows = max(1, _TILE >> s)
    weight = np.empty(d, dtype=np.uint64)
    for h in range(0, len(high), rows):
        i0, i1 = h << s, min(d, (h + rows) << s)
        weight[pi[i0:i1]] = m61_mul(high[h:h + rows, None], low[None, :]).ravel()[:i1 - i0]
    return np.frombuffer(weight.tobytes(), dtype=np.uint64)


def _difference_polys(r: tuple, d: int, count: int) -> list:
    """Coefficients mod M61, lowest first, of Q_m = Delta^m R for m < count.

    R(z) = sum_j r[j] z^j is the coefficient at global index z - 1, and
    (Delta R)(z) = R(z + d) - R(z) steps it by one pass, so
    Q_m(b) = sum_i (-1)^(m-i) C(m, i) R(b + i*d) is the m-th forward
    difference over passes of the coefficient at address b - 1. Q_m has
    degree len(r) - 1 - m; its higher coefficients cancel and are dropped.
    R(z + c) expands as sum_m z^m sum_(j>=m) r[j] C(j, m) c^(j-m).
    """
    k = len(r)
    shifted = [[sum(r[j] * math.comb(j, e) * (i * d) ** (j - e) for j in range(e, k))
                for e in range(k)] for i in range(count)]
    return [[sum((-1) ** (m - i) * math.comb(m, i) * shifted[i][e] for i in range(m + 1)) % M61
             for e in range(k - m)] for m in range(count)]


def multipass_m61(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """Vectorized multi-pass evaluation for p = M61, exactly equal to multipass.

    words is the scanned sequence as a uint64 array of d < 2^32 words.
    Within a pass the Horner chain over pi[d-1], ..., pi[0] gives the word
    at address pi[i] the weight x^i, so a pass is a dot product of the
    masked terms with one d-word weight array (_weights_m61); passes chain
    in Python ints by x^d. The work runs over address tiles of _TILE words,
    and every array operation of a tile writes into buffers allocated once
    per call, so no temporary other than the weight array grows with d.

    Per tile of n words, with every bound that keeps uint64 exact:

    - The coefficient of address b - 1 in pass t is R(t*d + b), a
      polynomial of degree k-1 in t. Its first K = min(k, P) forward
      differences over t at t = 0 are Q_m(b) (_difference_polys), each
      evaluated by Horner in the small operand b <= d < 2^32: a step
      multiplies the two 32-bit limbs of s < 2^61 + 8 by b (products
      below 2^61 and 2^64), and its five summands stay below 2^63 before
      one fold (field.m61_muladd_small). Every later pass advances the
      table with K-1 modular additions of canonical residues (sums below
      2^62, reduced by min(v, v - p)).
    - A term is the 64-bit XOR of word and coefficient. It is never reduced
      mod p: the dot product only needs its residue. Viewed as four 16-bit
      limbs it multiplies the weight's three 21-bit limbs in one float64
      (4 x n) @ (n x 3) product per pass. Each of the 12 limb sums is an
      integer below n * 2^16 * 2^21 <= 2^49 < 2^53, so float64 holds it
      exactly in any summation order.
    - The 12 limb sums of each pass add into uint64 accumulators that one
      Mersenne fold per tile keeps below 2^61 + 8 (below 2^62 before the
      fold), so nothing wraps for any d. At the end limb (a, c) scales by
      2^(16a + 21c) mod p.
    """
    p = spec.params.p
    if p != M61:
        raise ValueError(f"vectorized evaluator needs p = M61, got p = {p}")
    d = len(words)
    passes = spec.passes
    if passes * d > p - 1:
        raise SpecOutOfField(f"passes*word_count = {passes * d} exceeds p-1 = {p - 1}")
    if d >= 1 << 32:
        raise ValueError(f"vectorized evaluator needs fewer than 2^32 words, got {d}")
    x = spec.params.x
    weight = _weights_m61(d, x, spec.perm_seed)
    polys = _difference_polys(spec.seeds.r, d, min(len(spec.seeds.r), passes))
    tile = min(d, _TILE)
    one_based = np.arange(1, tile + 1, dtype=np.uint64)
    # k rows even when P < k, so the buffers depend on k and the tile, not on P
    diffs = np.empty((len(spec.seeds.r), tile), dtype=np.uint64)[:len(polys)]
    b, terms, tmp, tmp2 = np.empty((4, tile), dtype=np.uint64)
    term_limbs = np.empty((4, tile))
    weight_limbs = np.empty((3, tile))
    tile_sums = np.empty((passes, 4, 3))
    sums = np.zeros((passes, 4, 3), dtype=np.uint64)
    sums_tmp = np.empty_like(sums)
    for start in range(0, d, tile):
        n = min(tile, d - start)
        if n < tile:
            diffs, b, terms, tmp, tmp2 = (a[..., :n] for a in (diffs, b, terms, tmp, tmp2))
            term_limbs, weight_limbs = term_limbs[:, :n], weight_limbs[:, :n]
        w = weight[start:start + n]
        np.bitwise_and(w, _LIMB21, out=weight_limbs[0], casting="unsafe")
        np.right_shift(w, _SHIFT21, out=tmp)
        np.bitwise_and(tmp, _LIMB21, out=weight_limbs[1], casting="unsafe")
        np.right_shift(w, _SHIFT42, out=weight_limbs[2], casting="unsafe")
        np.add(one_based[:n], np.uint64(start), out=b)
        for diff, q in zip(diffs, polys):
            diff.fill(q[-1])
            for c in reversed(q[:-1]):
                m61_muladd_small(diff, b, c, tmp, tmp2)
            m61_canon(diff, tmp)
        tile_words = words[start:start + n]
        limbs16 = terms.view(np.uint16).reshape(n, 4).T
        for pass_no in range(passes):
            if pass_no:
                for m in range(len(diffs) - 1):
                    m61_add(diffs[m], diffs[m + 1], tmp)
            np.bitwise_xor(tile_words, diffs[0], out=terms)
            np.copyto(term_limbs, limbs16)
            np.matmul(term_limbs, weight_limbs.T, out=tile_sums[pass_no])
        np.copyto(sums_tmp, tile_sums, casting="unsafe")
        sums += sums_tmp
        m61_fold(sums, sums_tmp)
    x_d = pow(x, d, p)
    result = 0
    for row in sums.reshape(passes, 12):  # row by row: no P x 12 list of ints
        result = (result * x_d + sum(map(operator.mul, row.tolist(), _LIMB_SCALES))) % p
    return ChallengeResult(result, passes * d, spec.digest())


def evaluate(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """The challenge result over a uint64 word array, by the fastest exact path.

    p = M61 goes to multipass_m61; any other prime to the streaming multipass.
    """
    if spec.params.p == M61:
        return multipass_m61(words, spec)
    return multipass(MemoryImage(words.tolist()), spec)

