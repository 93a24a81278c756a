"""On-demand pseudorandom permutation of [0, n) via a keyed Feistel network.

A Feistel network is an invertible transformation on fixed-width blocks, so
it yields a permutation of [0, 2^b) for b = ceil(log2 n) (floored at 2 so
both halves are non-empty even for n <= 2). Domains that are not powers of
two use cycle walking: out-of-range outputs are re-encrypted until they land
inside [0, n). Since 2^b < 2n the expected number of tries is below 2.

Each index is produced in O(1) space and O(1) expected time, and the network
runs backwards for inversion. This is NOT a cryptographic PRP; it only has
to make the next challenge address unguessable without the seed.

The round function is a keyed multiply-xor-shift mixer (splitmix64-style
avalanche) over the half-block, the per-round key, and the round number.
The round count is configurable; 4 balanced rounds is the standard minimum
for pseudorandom behavior on tiny domains.
"""

import numpy as np

from .errors import CycleWalkExceeded, DomainEmpty, RankOutOfRange

_MASK64 = (1 << 64) - 1
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_SHIFT27 = np.uint64(27)
_SHIFT30 = np.uint64(30)
_SHIFT31 = np.uint64(31)

# Cycle walking virtually never needs more than a handful of tries; a longer
# walk indicates a broken round function rather than bad luck.
_WALK_CAP = 64

DEFAULT_ROUNDS = 4


def _mix64(v: int) -> int:
    """splitmix64 finalizer: full avalanche on a 64-bit word."""
    v &= _MASK64
    v ^= v >> 30
    v = v * 0xBF58476D1CE4E5B9 & _MASK64
    v ^= v >> 27
    v = v * 0x94D049BB133111EB & _MASK64
    v ^= v >> 31
    return v


def _mix64_array(v: np.ndarray, tmp: np.ndarray) -> None:
    """In place: _mix64 over a uint64 array; the multiplies wrap mod 2^64."""
    for shift, factor in ((_SHIFT30, _MIX_A), (_SHIFT27, _MIX_B)):
        np.right_shift(v, shift, out=tmp)
        np.bitwise_xor(v, tmp, out=v)
        np.multiply(v, factor, out=v)
    np.right_shift(v, _SHIFT31, out=tmp)
    np.bitwise_xor(v, tmp, out=v)


class PermutationGenerator:
    """Deterministic bijection on [0, n) keyed by a 64-bit seed.

    Output depends only on (n, seed, rounds). Instances are immutable after
    construction; concurrent get/invert calls are safe.
    """

    __slots__ = ("n", "seed", "bits", "rounds", "_keys", "_half_hi", "_half_lo")

    def __init__(self, n: int, seed: int, rounds: int = DEFAULT_ROUNDS):
        if n < 1:
            raise DomainEmpty(f"permutation domain must be non-empty, got n={n}")
        if rounds < 1:
            raise ValueError("need at least one Feistel round")
        self.n = n
        self.seed = seed & _MASK64
        self.bits = max(2, (n - 1).bit_length())
        self.rounds = rounds
        # Unbalanced split when bits is odd: left half gets the extra bit.
        self._half_hi = self.bits - self.bits // 2  # left width, ceil(b/2)
        self._half_lo = self.bits // 2              # right width, floor(b/2)
        self._keys = tuple(
            _mix64(self.seed ^ _mix64((rnd + 1) * 0x9E3779B97F4A7C15))
            for rnd in range(rounds)
        )

    def _encrypt(self, block: int) -> int:
        lo_bits = self._half_lo
        hi_bits = self._half_hi
        left = block >> lo_bits
        right = block & ((1 << lo_bits) - 1)
        for key in self._keys:
            # new left takes the old right; widths swap every round
            left, right = right, left ^ (_mix64(right ^ key) & ((1 << hi_bits) - 1))
            hi_bits, lo_bits = lo_bits, hi_bits
        return (left << lo_bits) | right

    def _decrypt(self, block: int) -> int:
        # With an even round count the final widths equal the initial ones;
        # with an odd count they are swapped. Track them explicitly.
        if self.rounds % 2 == 0:
            hi_bits, lo_bits = self._half_hi, self._half_lo
        else:
            hi_bits, lo_bits = self._half_lo, self._half_hi
        left = block >> lo_bits
        right = block & ((1 << lo_bits) - 1)
        for key in reversed(self._keys):
            hi_bits, lo_bits = lo_bits, hi_bits
            left, right = right ^ (_mix64(left ^ key) & ((1 << hi_bits) - 1)), left
        return (left << lo_bits) | right

    def get(self, i: int) -> int:
        """The permuted index pi[i], with cycle walking to stay inside [0, n)."""
        if not 0 <= i < self.n:
            raise RankOutOfRange(f"rank {i} outside [0, {self.n})")
        v = i
        for _ in range(_WALK_CAP):
            v = self._encrypt(v)
            if v < self.n:
                return v
        raise CycleWalkExceeded(
            f"no in-domain value after {_WALK_CAP} re-encryptions (n={self.n})"
        )

    def tiles(self, size: int):
        """Yield (ranks, indices) uint64 array pairs with indices[j] == get(ranks[j]).

        Every rank in [0, n) appears in exactly one pair and no pair is longer
        than size. Ranks enter in increasing order; an entry that encrypts
        outside [0, n) waits in a pool and re-encrypts together with the next
        fresh ranks, so cycle walking costs no extra pass per tile and the
        working set stays O(size) for any n. The Feistel rounds run over
        whole arrays (uint64 multiplies wrap mod 2^64 exactly like _mix64's
        masking).
        """
        n = np.uint64(self.n)
        ranks = vals = np.empty(0, dtype=np.uint64)
        walks = np.empty(0, dtype=np.uint64)
        start = 0
        while start < self.n or ranks.size:
            stop = min(self.n, start + size - ranks.size)
            fresh = np.arange(start, stop, dtype=np.uint64)
            start = stop
            ranks = np.concatenate((ranks, fresh))
            vals = self._encrypt_array(np.concatenate((vals, fresh)))
            walks = np.concatenate((walks, np.zeros(fresh.size, dtype=np.uint64)))
            walks += np.uint64(1)
            outside = vals >= n
            if not outside.any():
                yield ranks, vals
                ranks = vals = ranks[:0]
                walks = walks[:0]
                continue
            # integer takes: boolean-mask indexing is several times slower here
            inside = np.flatnonzero(~outside)
            yield ranks.take(inside), vals.take(inside)
            outside = np.flatnonzero(outside)
            ranks, vals, walks = ranks.take(outside), vals.take(outside), walks.take(outside)
            if int(walks.max()) >= _WALK_CAP:
                raise CycleWalkExceeded(
                    f"no in-domain value after {_WALK_CAP} re-encryptions (n={self.n})"
                )

    def _encrypt_array(self, block: np.ndarray) -> np.ndarray:
        """_encrypt over a uint64 array, into buffers allocated once per call."""
        lo_bits = self._half_lo
        hi_bits = self._half_hi
        left = block >> np.uint64(lo_bits)
        right = block & np.uint64((1 << lo_bits) - 1)
        mixed = np.empty_like(block)
        tmp = np.empty_like(block)
        for key in self._keys:
            np.bitwise_xor(right, np.uint64(key), out=mixed)
            _mix64_array(mixed, tmp)
            np.bitwise_and(mixed, np.uint64((1 << hi_bits) - 1), out=mixed)
            np.bitwise_xor(left, mixed, out=left)
            left, right = right, left
            hi_bits, lo_bits = lo_bits, hi_bits
        np.left_shift(left, np.uint64(lo_bits), out=left)
        np.bitwise_or(left, right, out=left)
        return left

    def invert(self, j: int) -> int:
        """The rank i with get(i) == j: Feistel rounds run in reverse."""
        if not 0 <= j < self.n:
            raise RankOutOfRange(f"index {j} outside [0, {self.n})")
        v = j
        for _ in range(_WALK_CAP):
            v = self._decrypt(v)
            if v < self.n:
                return v
        raise CycleWalkExceeded(
            f"no in-domain value after {_WALK_CAP} decryptions (n={self.n})"
        )


class IdentityPermutation:
    """Trivial pi[i] = i provider, for plugging into tests and oracles."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 1:
            raise DomainEmpty(f"permutation domain must be non-empty, got n={n}")
        self.n = n

    def get(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise RankOutOfRange(f"rank {i} outside [0, {self.n})")
        return i

    def invert(self, j: int) -> int:
        return self.get(j)


def perm_new(n: int, seed: int, rounds: int = DEFAULT_ROUNDS) -> PermutationGenerator:
    """Build a keyed permutation generator over [0, n)."""
    return PermutationGenerator(n, seed, rounds)


def perm_get(gen: PermutationGenerator, i: int) -> int:
    return gen.get(i)


def perm_invert(gen: PermutationGenerator, j: int) -> int:
    return gen.invert(j)
