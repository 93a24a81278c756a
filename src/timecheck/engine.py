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
one coefficient at a time and the permutation's O(sqrt d) round tables
(per-challenge constants, like its round keys, with no per-word state). It
never materializes a coefficient array or a permuted copy of the image; that
working set is the security argument, and tests assert it structurally.

The verifier and the simulated device both go through evaluate(), which
remembers its last result for every prime and hands a scan at p = M61 to
the vectorized multipass_m61, at any other prime to multipass.
multipass_m61 is exactly equal to multipass; the streaming multipass stays
the constant-working-set reference for what a real device computes.

multipass_m61 works on numpy uint64 arrays in tiles of _TILE words:

- Weights. Horner over pi[d-1], ..., pi[0] gives address pi[i] the weight
  x^i, so a pass is one dot product of its terms with a d-word weight
  array. pi comes from PermutationGenerator.indices(): per-round lookup
  tables encrypt the block domain [0, 2^bits) into one uint32 table, and
  cycle walking gathers from it. The weight array (d uint64) and that
  table (2^bits < 2d uint32 for d > 2) are the only buffers growing with d.
  Each scan builds its weights and keeps none: the last challenge repeated
  over equal words is a lookup in evaluate's memo, not a scan.
- Coefficients. The coefficient of address b - 1 in pass t is
  R(t*d + b), a polynomial of degree k-1 in both directions: over passes
  (step d) and over tiles (step T, the tile width). Its forward
  differences in the two directions have Python-int coefficients
  (_difference_polys): min(k, P) over passes, and over tiles as many as
  the tile count can use, up to k. Only the first tile evaluates them, by
  Horner in b <= d < 2^32 (two 32 x 32-bit multiplies a step, sums below
  2^63; field.m61_muladd_small): at most k(k-1)(k+1)/6 steps, however many
  tiles. Each later tile advances the tables by T, and each later pass by
  d, with modular additions of canonical residues (sums below 2^62).
- Dot products. A term is word XOR coefficient, never reduced: the dot
  product only needs its residue mod p. Its four 16-bit limbs times the
  weight's three 21-bit limbs sum exactly in float64 (each sum below
  2^49), and the pass accumulators stay below 2^62 between Mersenne folds.
"""

import hashlib
import math
import operator
import random
import struct
import sys
from array import array
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
# evaluate's last evaluation, (spec, private copy of the words, result), or
# None. evaluate rebinds it to a new tuple and mutates none, so
# serve_device's thread and a verifier share it without a lock.
_last = None


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
    """Final accumulator plus the number of words it scanned."""

    accumulator: int
    words_scanned: int


def random_spec(p: int, k: int, passes: int, rng: random.Random,
                region_id: str = "sram") -> ChallengeSpec:
    """Fresh challenge randomness: k seed values, evaluation point, permutation key."""
    params = FieldParams(p, rng.randrange(p))
    seeds = RandomSeeds(tuple(rng.randrange(p) for _ in range(k)), params)
    return ChallengeSpec(seeds=seeds, perm_seed=rng.getrandbits(64),
                         passes=passes, region_id=region_id)


def _check_shape(words, spec: ChallengeSpec, perm=None) -> int:
    d = len(words)
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
    """Streaming multi-pass Horner evaluation, the constant-working-set device reference.

    perm is injectable for tests; by default the keyed generator for
    spec.perm_seed is built over [0, d). Raises SpecOutOfField when the
    coefficient indices would leave the field, PermutationDomainMismatch
    when an injected permutation has the wrong domain.
    """
    d = _check_shape(image.words, spec, perm)
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
    return ChallengeResult(result, spec.passes * d)


def multipass_naive(image: MemoryImage, spec: ChallengeSpec, perm=None) -> ChallengeResult:
    """Independent oracle: materialize everything, evaluate by explicit powers.

    Structurally disjoint from the streaming path: builds the full
    coefficient table and the full permuted term sequence (P*d entries
    each) and the scan order (d entries), then sums term[j] * x^(N-1-j)
    exactly in Python ints, one builtin pow per term. Every entry lies below
    2^64, so each table is an array("Q") of 8 bytes an entry whose items
    read back as exact Python ints: 16 bytes a term plus 8 a word, where
    lists of boxed ints cost about 115 bytes a term. Slow by design; capped
    at 2^16 words.
    """
    d = _check_shape(image.words, spec, perm)
    if d > 1 << 16:
        raise ValueError("naive oracle capped at 2^16 words")
    if perm is None:
        perm = PermutationGenerator(d, spec.perm_seed)
    p = spec.params.p
    x = spec.params.x
    r = spec.seeds.r

    coeffs = array("Q")
    for index in range(spec.passes * d):
        base = index + 1
        acc = 0
        for j in range(len(r) - 1, -1, -1):
            acc = (acc * base + r[j]) % p
        coeffs.append(acc)

    scan_order = array("Q", map(perm.get, range(d - 1, -1, -1)))
    terms = array("Q")
    for pass_no in range(spec.passes):
        for idx in scan_order:
            terms.append((image.words[idx] ^ coeffs[pass_no * d + idx]) % p)

    n = len(terms)
    total = 0
    for j, term in enumerate(terms):
        total = (total + term * pow(x, n - 1 - j, p)) % p
    return ChallengeResult(total, n)


def _geometric_m61(ratio: int, count: int) -> np.ndarray:
    """[ratio^0, ..., ratio^(count-1)] mod M61 as uint64; 0^0 is 1."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * ratio % M61)
    return np.array(out, dtype=np.uint64)


def _weights_m61(d: int, x: int, perm_seed: int) -> np.ndarray:
    """The d-word array weight[pi[i]] = x^i mod M61, filled tile by tile.

    A rank splits into i = h*2^s + l with 2^s about sqrt(d), so
    x^i = x^(h*2^s) * x^l is one product of two entries from tables of
    about sqrt(d) powers each. pi is indexed by rank, so the powers of about
    _TILE consecutive ranks are an outer product, scattered through pi.
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
    return weight


def _shifted(poly: list, c: int) -> list:
    """Coefficients, lowest first, of f(z + c): sum_(j>=e) f_j C(j, e) c^(j-e)."""
    return [sum(poly[j] * math.comb(j, e) * c ** (j - e) for j in range(e, len(poly)))
            for e in range(len(poly))]


def _difference(poly: list, h: int) -> list:
    """Coefficients mod M61 of (Delta_h f)(z) = f(z + h) - f(z).

    The difference has one degree less: its top coefficient cancels and is
    dropped.
    """
    return [(a - b) % M61 for a, b in zip(_shifted(poly, h), poly)][:-1]


def _difference_polys(r: tuple, d: int, count: int, step: int, orders: int) -> list:
    """table[m][e]: coefficients mod M61, lowest first, of Delta_step^e Delta_d^m R.

    R(z) = sum_j r[j] z^j is the coefficient at global index z - 1, so
    Delta_d steps the coefficient at address z - 1 by one pass and
    Delta_step steps the address by step. m runs below count and e below
    min(orders, len(r) - m); Delta_step^e Delta_d^m R has degree
    len(r) - 1 - m - e, so an entry of one coefficient is a constant.
    """
    table = []
    q = [c % M61 for c in r]
    for _ in range(count):
        row = [q]
        for _ in range(1, min(orders, len(q))):
            row.append(_difference(row[-1], step))
        table.append(row)
        q = _difference(q, d)
    return table


def multipass_m61(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """Vectorized multi-pass evaluation for p = M61, exactly equal to multipass.

    words is the scanned sequence as a uint64 array of d < 2^32 words.
    Within a pass the Horner chain over pi[d-1], ..., pi[0] gives the word
    at address pi[i] the weight x^i, so a pass is a dot product of the
    masked terms with one d-word weight array (_weights_m61); passes chain
    in Python ints by x^d. Every call scans and keeps nothing: remembering
    results is evaluate's job.

    The work runs over address tiles of T = min(d, _TILE) words, and every
    array operation of a tile writes into buffers allocated once per call,
    so besides the permutation table only the weight array grows with d.

    With every bound that keeps uint64 exact:

    - The coefficient of address b - 1 in pass t is R(t*d + b), a
      polynomial of degree k-1 in t and in b. The tables hold
      E[m][e] = Delta_T^e Delta_d^m R (_difference_polys) at the current
      tile's b, for m < min(k, P) and e < min(k - m, tiles). Pass t needs
      the pass differences of order m <= t only, and tile j the tile
      differences of order e <= j only, so a one-tile challenge holds the
      pass differences alone. E[m][e] has degree k-1-m-e; a constant is one
      word that broadcasts. On the first tile, b = 1..T, each entry of
      degree >= 1 is evaluated by Horner in the small operand b <= d < 2^32:
      a step multiplies the two 32-bit limbs of s < 2^61 + 8 by b (products
      below 2^61 and 2^64), and its five summands stay below 2^63 before
      one fold (field.m61_muladd_small). That is at most k(k-1)(k+1)/6 steps
      however many tiles the words span.
    - Each later tile advances the tables by T: E[m][e] += E[m][e+1] in
      ascending e. Within a tile each later pass advances the coefficient
      by d: C[m] += C[m+1] in ascending m, where C starts as the tile's
      E[m][0] and is written to a second buffer that leaves them intact.
      Both are modular additions of canonical residues (field.m61_add: sums
      below 2^62, reduced by min(v, v - p)), so every coefficient that
      reaches a term is canonical.
    - A term is the 64-bit XOR of word and coefficient. It is never reduced
      mod p: the dot product only needs its residue. Viewed as four 16-bit
      limbs it multiplies the weight's three 21-bit limbs in one float64
      (4 x n) @ (n x 3) product per pass over a tile of n words. Each of
      the 12 limb sums is an integer below n * 2^16 * 2^21 <= 2^49 < 2^53,
      so float64 holds it exactly in any summation order.
    - The 12 limb sums of each pass add into uint64 accumulators that one
      Mersenne fold per tile keeps below 2^61 + 8 (below 2^62 before the
      fold), so nothing wraps for any d. At the end limb (a, c) scales by
      2^(16a + 21c) mod p.
    """
    p = spec.params.p
    if p != M61:
        raise ValueError(f"vectorized evaluator needs p = M61, got p = {p}")
    d = _check_shape(words, spec)
    if d >= 1 << 32:
        raise ValueError(f"vectorized evaluator needs fewer than 2^32 words, got {d}")
    passes = spec.passes
    x = spec.params.x
    k = len(spec.seeds.r)
    count = min(k, passes)
    tile = min(d, _TILE)
    orders = min(k, -(-d // tile))
    weight = _weights_m61(d, x, spec.perm_seed)
    # rows for every m < k even when P < k, so the buffers depend on k, the
    # tile and the tile count, not on P
    rows = iter(np.empty((sum(min(orders, k - 1 - m) for m in range(k)), tile), dtype=np.uint64))
    work = np.empty((k - 1, tile), dtype=np.uint64)
    terms, tmp, tmp2 = np.empty((3, tile), dtype=np.uint64)
    term_limbs = np.empty((4, tile))
    weight_limbs = np.empty((3, tile))
    tile_sums = np.empty((passes, 4, 3))
    sums = np.zeros((passes, 4, 3), dtype=np.uint64)
    sums_tmp = np.empty_like(sums)
    b = np.arange(1, tile + 1, dtype=np.uint64)  # address + 1 over the first tile
    tables = []
    for polys in _difference_polys(spec.seeds.r, d, count, tile, orders):
        entries = []
        for q in polys:
            if len(q) == 1:
                entries.append(np.full(1, q[0], dtype=np.uint64))
                continue
            row = next(rows)
            row.fill(q[-1])
            for c in reversed(q[:-1]):
                m61_muladd_small(row, b, c, tmp, tmp2)
            m61_canon(row, tmp)
            entries.append(row)
        tables.append(entries)
    for start in range(0, d, tile):
        n = min(tile, d - start)
        if n < tile:
            work, terms, tmp = (a[..., :n] for a in (work, terms, tmp))
            term_limbs, weight_limbs = term_limbs[:, :n], weight_limbs[:, :n]
            tables = [[e[:n] for e in entries] for entries in tables]
        if start:
            for entries in tables:
                for e in range(len(entries) - 1):
                    m61_add(entries[e], entries[e + 1], tmp)
        w = weight[start:start + n]
        np.bitwise_and(w, _LIMB21, out=weight_limbs[0], casting="unsafe")
        np.right_shift(w, _SHIFT21, out=tmp)
        np.bitwise_and(tmp, _LIMB21, out=weight_limbs[1], casting="unsafe")
        np.right_shift(w, _SHIFT42, out=weight_limbs[2], casting="unsafe")
        coeffs = [entries[0] for entries in tables]
        later = [*work[:count - 1], coeffs[-1]]  # the pass differences from pass 1 on
        tile_words = words[start:start + n]
        limbs16 = terms.view(np.uint16).reshape(n, 4).T
        for pass_no in range(passes):
            if pass_no:
                for m in range(count - 1):
                    m61_add(coeffs[m], coeffs[m + 1], tmp, out=later[m])
                coeffs = later
            np.bitwise_xor(tile_words, coeffs[0], out=terms)
            np.copyto(term_limbs, limbs16)
            np.matmul(term_limbs, weight_limbs.T, out=tile_sums[pass_no])
        np.copyto(sums_tmp, tile_sums, casting="unsafe")
        sums += sums_tmp
        m61_fold(sums, sums_tmp)
    x_d = pow(x, d, p)
    result = 0
    for row in sums.reshape(passes, 12):  # row by row: no P x 12 list of ints
        result = (result * x_d + sum(map(operator.mul, row.tolist(), _LIMB_SCALES))) % p
    return ChallengeResult(result, passes * d)


def evaluate(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """The challenge result over a uint64 word array, by the fastest exact path.

    p = M61 goes to multipass_m61; any other prime to the streaming multipass.
    The result is a pure function of the spec and the word values, so the
    last evaluation is remembered process-wide with a private copy of its
    words: a call whose spec is equal and whose words are equal element by
    element returns the remembered result without scanning, for any prime.
    Any other call scans, tampered or unreplayed memory included. A verifier
    and a simulated device in one process (challenge --target loopback,
    LoopbackChannel sessions) thus scan each challenge once; a device behind
    TCP scans in its own process. The memo holds one d-word array, 8d bytes.
    """
    global _last
    last = _last
    if last is not None and last[0] == spec and np.array_equal(last[1], words):
        return last[2]
    if spec.params.p == M61:
        result = multipass_m61(words, spec)
    else:
        result = multipass(MemoryImage(words.tolist()), spec)
    _last = (spec, np.array(words, dtype=np.uint64), result)  # copied: callers may mutate
    return result
