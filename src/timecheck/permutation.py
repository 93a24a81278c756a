"""On-demand pseudorandom permutation of [0, n) via a keyed Feistel network.

A Feistel network is an invertible transformation on fixed-width blocks, so
it yields a permutation of [0, 2^b) for b = ceil(log2 n) (floored at 2 so
both halves are non-empty even for n <= 2). Domains that are not powers of
two use cycle walking: out-of-range outputs are re-encrypted until they land
inside [0, n). Since 2^b < 2n the expected number of tries is below 2.

Each index is produced in O(1) space and O(1) expected time, and the network
runs backwards for inversion; indices() builds all of pi in O(n) memory from
per-round lookup tables. This is NOT a cryptographic PRP; it only has to
make the next challenge address unguessable without the seed.

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

# Blocks per tile in indices(): its three 64 KB intp buffers stay in cache.
_DOMAIN_TILE = 1 << 13

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


def _mix64_array(v: np.ndarray) -> None:
    """In place: _mix64 over a uint64 array; the multiplies wrap mod 2^64."""
    v ^= v >> _SHIFT30
    v *= _MIX_A
    v ^= v >> _SHIFT27
    v *= _MIX_B
    v ^= v >> _SHIFT31


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

    def indices(self) -> np.ndarray:
        """pi[i] == get(i) for every rank i in [0, n), as one uint32 array.

        A round's mixer _mix64(right ^ key) & mask depends only on the right
        half, below 2^ceil(bits/2), so each round is a lookup table. The block
        domain [0, 2^bits) is encrypted into one table of 2^bits < 2n values
        (4 when n <= 2), tile by tile, each round one gather and one XOR; an
        out-of-range entry walks its cycle by gathering from that table.
        """
        if self.bits > 32:
            raise ValueError(f"a uint32 permutation table needs n <= 2^32, got n={self.n}")
        half = 1 << self._half_lo
        # round r masks to its left half's width: half_hi, half_lo, half_hi, ...
        widths = [(self._half_hi, self._half_lo)[r % 2] for r in range(self.rounds)]
        tables = np.bitwise_xor.outer(np.array(self._keys, dtype=np.uint64),
                                      np.arange(1 << self._half_hi, dtype=np.uint64))
        _mix64_array(tables)
        masks = np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)
        tables = (tables & masks[:, None]).astype(np.intp)
        enc = np.empty(1 << self.bits, dtype=np.uint32)
        tile = min(enc.size, _DOMAIN_TILE)
        # a tile starts at a multiple of the power-of-two tile, so the halves
        # of block start + j are those of start plus those of j
        left0, right0 = np.divmod(np.arange(tile, dtype=np.intp), half)
        left, right, mixed = np.empty((3, tile), dtype=np.intp)
        for start in range(0, enc.size, tile):
            np.add(left0, start // half, out=left)
            np.add(right0, start % half, out=right)
            for table in tables:
                table.take(right, out=mixed, mode="clip")  # every index is in range
                np.bitwise_xor(left, mixed, out=left)
                left, right = right, left
            np.left_shift(left, widths[-1], out=left)  # the last right half is widths[-1] wide
            np.bitwise_or(left, right, out=enc[start:start + tile], casting="unsafe")
        # pi is enc's first n entries, walked in place: a walk gathers only
        # from entries >= n, which it never writes
        pi = enc[:self.n]
        walking = np.flatnonzero(pi >= self.n)
        for _ in range(_WALK_CAP - 1):
            if not walking.size:
                return pi
            walked = enc[pi[walking]]
            pi[walking] = walked
            walking = walking[walked >= self.n]
        if walking.size:
            raise CycleWalkExceeded(f"no in-domain value after {_WALK_CAP} re-encryptions "
                                    f"(n={self.n})")
        return pi

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
