"""On-demand pseudorandom permutation of [0, n) via a keyed Feistel network.

A Feistel network is an invertible transformation on fixed-width blocks, so
it yields a permutation of [0, 2^b) for b = ceil(log2 n) (floored at 2 so
both halves are non-empty even for n <= 2). Domains that are not powers of
two use cycle walking: out-of-range outputs are re-encrypted until they land
inside [0, n). Since 2^b < 2n the expected number of tries is below 2.

The round function is a keyed multiply-xor-shift mixer (splitmix64-style
avalanche) of the right half-block and the round's key. It depends only on
that half, below 2^ceil(b/2), so each generator evaluates it once, into one
lookup table per round: O(sqrt n) space per generator, built at construction.
get and invert (the same tables in reverse round order) then cost O(1)
expected time per index, and indices() builds all of pi in O(n) memory from
the same tables. This is NOT a cryptographic PRP; it only has to make the
next challenge address unguessable without the seed. It runs 4 balanced
rounds, the standard minimum for pseudorandom behavior on tiny domains.
"""

import numpy as np

from .errors import CycleWalkExceeded, DomainEmpty, RankOutOfRange

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
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

ROUNDS = 4


def _mix64_array(v: np.ndarray) -> None:
    """In place: the splitmix64 finalizer over a uint64 array; multiplies wrap mod 2^64."""
    v ^= v >> _SHIFT30
    v *= _MIX_A
    v ^= v >> _SHIFT27
    v *= _MIX_B
    v ^= v >> _SHIFT31


# mix((r + 1) * golden) for r < ROUNDS: the half of the key schedule free of
# the seed, shared by every generator.
_ROUND_CONSTANTS = np.arange(1, ROUNDS + 1, dtype=np.uint64) * _GOLDEN
_mix64_array(_ROUND_CONSTANTS)
_ROUND_CONSTANTS.flags.writeable = False


class PermutationGenerator:
    """Deterministic bijection on [0, n) keyed by a 64-bit seed.

    Output depends only on (n, seed). Instances are immutable after
    construction; concurrent get/invert calls are safe.
    """

    __slots__ = ("n", "seed", "bits", "_tables", "_rows", "_lo")

    def __init__(self, n: int, seed: int):
        if n < 1:
            raise DomainEmpty(f"permutation domain must be non-empty, got n={n}")
        self.n = n
        self.seed = seed & _MASK64
        self.bits = max(2, (n - 1).bit_length())
        self._build_tables()

    def _build_tables(self) -> None:
        """Round r's table: the mixer of every right half-block with round r's key.

        The left half gets the extra bit when bits is odd and the halves swap
        every round, so round r masks to ceil(bits/2), floor(bits/2), ... bits.
        After an even number of rounds a block splits as it did going in, at
        the right half's width _lo. _tables (intp) serves indices(); _rows,
        the same tables as lists, serves the scalar path, which indexes lists
        far faster than arrays.
        """
        hi, lo = self.bits - self.bits // 2, self.bits // 2
        keys = _ROUND_CONSTANTS ^ np.uint64(self.seed)
        _mix64_array(keys)
        tables = np.bitwise_xor.outer(keys, np.arange(1 << hi, dtype=np.uint64))
        _mix64_array(tables)
        widths = [(hi, lo)[r % 2] for r in range(ROUNDS)]
        tables &= np.array([(1 << w) - 1 for w in widths], dtype=np.uint64)[:, None]
        self._tables = tables.astype(np.intp)
        self._rows = self._tables.tolist()
        self._lo = lo

    def _encrypt(self, block: int) -> int:
        left, right = divmod(block, 1 << self._lo)
        for table in self._rows:
            left, right = right, left ^ table[right]
        return (left << self._lo) | right

    def _decrypt(self, block: int) -> int:
        left, right = divmod(block, 1 << self._lo)
        for table in reversed(self._rows):
            left, right = right ^ table[left], left
        return (left << self._lo) | right

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

        The block domain [0, 2^bits) is encrypted into one table of
        2^bits < 2n values (4 when n <= 2), tile by tile, each round one
        gather from its round table and one XOR; an out-of-range entry walks
        its cycle by gathering from that table.
        """
        if self.bits > 32:
            raise ValueError(f"a uint32 permutation table needs n <= 2^32, got n={self.n}")
        half = 1 << self._lo
        enc = np.empty(1 << self.bits, dtype=np.uint32)
        tile = min(enc.size, _DOMAIN_TILE)
        # a tile starts at a multiple of the power-of-two tile, so the halves
        # of block start + j are those of start plus those of j
        left0, right0 = np.divmod(np.arange(tile, dtype=np.intp), half)
        left, right, mixed = np.empty((3, tile), dtype=np.intp)
        for start in range(0, enc.size, tile):
            np.add(left0, start // half, out=left)
            np.add(right0, start % half, out=right)
            for table in self._tables:
                table.take(right, out=mixed, mode="clip")  # every index is in range
                np.bitwise_xor(left, mixed, out=left)
                left, right = right, left
            np.left_shift(left, self._lo, out=left)
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
