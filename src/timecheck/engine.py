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
builds the whole permutation, a pass's coefficients and the weights
x^i as uint64 arrays and is exactly equal to multipass; the streaming
multipass stays the constant-working-set reference for what a real device
computes.
"""

import hashlib
import math
import random
import struct
from dataclasses import dataclass

import numpy as np

from .checkpoint import MemoryImage
from .coeffs import RandomSeeds
from .errors import PermutationDomainMismatch, SpecOutOfField
from .field import M61, FieldParams, m61_dot, m61_mul, m61_reduce, pow_mod
from .permutation import perm_new

# Words per block in multipass_m61: 64 KB arrays keep the temporaries in cache.
_BLOCK = 8192


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
        perm = perm_new(d, spec.perm_seed)
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
    term[j] * x^(N-1-j) with pow_mod. Slow and memory-hungry by design;
    capped at 2^16 words.
    """
    d = _check_shape(image, spec, perm)
    if d > 1 << 16:
        raise ValueError("naive oracle capped at 2^16 words")
    if perm is None:
        perm = perm_new(d, spec.perm_seed)
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
        total = (total + term * pow_mod(x, n - 1 - j, p)) % p
    return ChallengeResult(total, n, spec.digest())


def _geometric_m61(ratio: int, count: int) -> np.ndarray:
    """[ratio^0, ..., ratio^(count-1)] mod M61 as uint64; 0^0 is 1."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * ratio % M61)
    return np.array(out, dtype=np.uint64)


def _powers_m61(x: int, n: int) -> np.ndarray:
    """[x^0, ..., x^(n-1)] mod M61 as uint64, as x^i = (x^b)^(i // b) * x^(i % b)."""
    b = math.isqrt(n - 1) + 1  # b*b >= n
    high = np.repeat(_geometric_m61(pow(x, b, M61), b), b)[:n]
    low = np.tile(_geometric_m61(x, b), b)[:n]
    return m61_mul(high, low)


def multipass_m61(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """Vectorized multi-pass evaluation for p = M61, exactly equal to multipass.

    words is the scanned sequence as a uint64 array. Within a pass the
    Horner chain over pi[d-1], ..., pi[0] gives the word at address pi[i]
    the weight x^i, so a pass is one dot product of the masked terms with a
    weight array built once per challenge (m61_dot sums the reduced products
    exactly); passes chain in Python ints by x^d.
    Addresses are processed in blocks of _BLOCK words so that the array
    temporaries stay small and cache-resident.
    """
    p = spec.params.p
    if p != M61:
        raise ValueError(f"vectorized evaluator needs p = M61, got p = {p}")
    d = len(words)
    if spec.passes * d > p - 1:
        raise SpecOutOfField(f"passes*word_count = {spec.passes * d} exceeds p-1 = {p - 1}")
    x = spec.params.x
    r = spec.seeds.r
    weight = np.empty(d, dtype=np.uint64)
    weight[perm_new(d, spec.perm_seed).table()] = _powers_m61(x, d)
    pass_values = [0] * spec.passes
    for start in range(0, d, _BLOCK):
        block_words = words[start:start + _BLOCK]
        block_weight = weight[start:start + _BLOCK]
        index1 = np.arange(start + 1, start + 1 + len(block_words), dtype=np.uint64)
        for pass_no in range(spec.passes):
            base = index1 + np.uint64(pass_no * d)
            s = np.full(len(block_words), r[-1], dtype=np.uint64)
            for rj in r[-2::-1]:
                s = m61_reduce(m61_mul(s, base) + np.uint64(rj))
            pass_values[pass_no] += m61_dot(m61_reduce(block_words ^ s), block_weight)
    x_d = pow(x, d, p)
    result = 0
    for value in pass_values:
        result = (result * x_d + value) % p
    return ChallengeResult(result, spec.passes * d, spec.digest())


def evaluate(words: np.ndarray, spec: ChallengeSpec) -> ChallengeResult:
    """The challenge result over a uint64 word array, by the fastest exact path.

    p = M61 goes to multipass_m61; any other prime to the streaming multipass.
    """
    if spec.params.p == M61:
        return multipass_m61(words, spec)
    return multipass(MemoryImage(words.tolist()), spec)


def collision_probe(spec: ChallengeSpec, word_count: int, trials: int,
                    rng_seed: int = 0) -> float:
    """Empirical collision rate of the challenge digest under a fixed spec.

    Draws random pairs of distinct images of equal size, evaluates both, and
    returns the fraction with equal accumulators. Meant for small primes
    (p <= 2^16) where collisions are actually observable; the theoretical
    ceiling for a random challenge is 1/(p-1).
    """
    if spec.params.p > 1 << 16:
        raise ValueError("collision probe meant for small primes (p <= 2^16)")
    rng = random.Random(rng_seed)
    perm = perm_new(word_count, spec.perm_seed)
    collisions = 0
    for _ in range(trials):
        a = [rng.getrandbits(64) for _ in range(word_count)]
        b = [rng.getrandbits(64) for _ in range(word_count)]
        while b == a:
            b = [rng.getrandbits(64) for _ in range(word_count)]
        ra = multipass(MemoryImage(a), spec, perm)
        rb = multipass(MemoryImage(b), spec, perm)
        if ra.accumulator == rb.accumulator:
            collisions += 1
    return collisions / trials
