"""Exact arithmetic over Z_p for 64-bit prime moduli.

Python ints give exact double-width intermediates for free, so a 64-bit
modular multiply never wraps. The default production modulus is the
Mersenne prime M61 = 2^61 - 1: it fits a 64-bit word and leaves headroom
for the XOR-masked terms fed into Horner accumulation.

All functions are pure and safe to call concurrently.
"""

import functools
from dataclasses import dataclass

import numpy as np

M61 = (1 << 61) - 1  # 2305843009213693951, default production modulus

# Deterministic Miller-Rabin witnesses: correct for every n < 3.3 * 10^24,
# which covers all 64-bit moduli.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# Every FieldParams validates its modulus, and one trial or session builds
# several on the same prime. The cache is bounded so that hostile CHALLENGE
# frames carrying many distinct primes cannot grow memory.
@functools.lru_cache(maxsize=64)
def is_prime(n: int) -> bool:
    """Deterministic primality check for n < 2^64 (Miller-Rabin, fixed witnesses)."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == small:
            return True
        if n % small == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldParams:
    """Prime modulus p and evaluation point x for all Z_p arithmetic.

    p must be a prime that fits 64 bits; x must lie in [0, p).
    """

    p: int
    x: int

    def __post_init__(self):
        if not 2 <= self.p < (1 << 64):
            raise ValueError(f"modulus must be a 64-bit integer >= 2, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")
        if not 0 <= self.x < self.p:
            raise ValueError(f"evaluation point {self.x} outside [0, {self.p})")


def horner_step(acc: int, x: int, term: int, p: int) -> int:
    """One Horner accumulation step: (acc * x + term) mod p."""
    return (acc * x + term) % p


# --- vectorized arithmetic mod M61 on uint64 arrays ---------------------------
# 2^61 = 1 (mod M61), so a value splits into its low 61 bits plus the bits
# above them. numpy uint64 arithmetic wraps mod 2^64; every intermediate below
# is kept under 2^64 by construction, so nothing ever wraps.

_M61_U = np.uint64(M61)
_LO32 = np.uint64(0xFFFFFFFF)
_LO29 = np.uint64((1 << 29) - 1)
_SHIFT29 = np.uint64(29)
_SHIFT32 = np.uint64(32)
_SHIFT61 = np.uint64(61)


def m61_fold(v: np.ndarray, tmp: np.ndarray) -> None:
    """In place: v <- (v & M61) + (v >> 61), congruent to v and below 2^61 + 8.

    tmp is a scratch array of v's shape; v can be any uint64 array.
    """
    np.right_shift(v, _SHIFT61, out=tmp)
    np.bitwise_and(v, _M61_U, out=v)
    np.add(v, tmp, out=v)


def m61_canon(v: np.ndarray, tmp: np.ndarray) -> None:
    """In place: v <- v mod M61 for values below 2*M61, as min(v, v - M61).

    For v < M61 the subtraction wraps past 2^63 and the minimum keeps v.
    """
    np.subtract(v, _M61_U, out=tmp)
    np.minimum(v, tmp, out=v)


def m61_reduce(v: np.ndarray) -> np.ndarray:
    """v mod M61 for any uint64 array v (values up to 2^64 - 1)."""
    out = v & _M61_U
    tmp = v >> _SHIFT61
    out += tmp  # < 2^61 + 8
    m61_canon(out, tmp)
    return out


def m61_add(a: np.ndarray, b: np.ndarray, tmp: np.ndarray) -> None:
    """In place: a <- (a + b) mod M61 for a and b in [0, M61)."""
    np.add(a, b, out=a)
    m61_canon(a, tmp)


def m61_muladd_small(s: np.ndarray, b: np.ndarray, c: int,
                     tmp: np.ndarray, tmp2: np.ndarray) -> None:
    """In place: s <- s*b + c mod M61 up to one fold, for a small operand b < 2^32.

    s may be any value below 2^61 + 8 (a folded, not canonical, residue) and
    c any int in [0, M61). Only s splits into limbs, s = s1*2^32 + s0 with
    s1 <= 2^29, so two multiplies suffice:

        u = s1*b < 2^61,   v = s0*b < 2^64
        s*b = u*2^32 + v = (u & (2^29-1))*2^32 + (u >> 29) + (v & M61) + (v >> 61)

    (mod M61). The four summands and c stay below 3*2^61 + 2^33 < 2^63, and
    one fold leaves s below 2^61 + 8 again; m61_canon makes it canonical.
    """
    np.right_shift(s, _SHIFT32, out=tmp)
    np.multiply(tmp, b, out=tmp)                  # u
    np.bitwise_and(s, _LO32, out=tmp2)
    np.multiply(tmp2, b, out=tmp2)                # v
    np.right_shift(tmp, _SHIFT29, out=s)
    np.bitwise_and(tmp, _LO29, out=tmp)
    np.left_shift(tmp, _SHIFT32, out=tmp)
    np.add(s, tmp, out=s)
    np.right_shift(tmp2, _SHIFT61, out=tmp)
    np.add(s, tmp, out=s)
    np.bitwise_and(tmp2, _M61_U, out=tmp2)
    np.add(s, tmp2, out=s)
    np.add(s, np.uint64(c), out=s)
    m61_fold(s, tmp)


def m61_mul(a: np.ndarray, b) -> np.ndarray:
    """Exact a * b mod M61, elementwise, for uint64 operands in [0, M61).

    Both operands split into 32-bit limbs, a = a1*2^32 + a0 with a1 < 2^29:

        a*b = a1*b1*2^64 + (a1*b0 + a0*b1)*2^32 + a0*b0
            = 8*a1*b1 + mid_hi + mid_lo*2^32 + a0*b0      (mod M61)

    where mid = mid_hi*2^29 + mid_lo. Each summand is below 2^61, so the
    sum stays below 2^63 and one Mersenne fold finishes the reduction.
    b may be a uint64 scalar.
    """
    a0, a1 = a & _LO32, a >> 32
    b0, b1 = b & _LO32, b >> 32
    mid = a1 * b0 + a0 * b1  # < 2^62
    lo = a0 * b0             # < 2^64
    s = ((a1 * b1) << 3) + (mid >> 29) + ((mid & _LO29) << 32) + (lo & _M61_U) + (lo >> 61)
    return m61_reduce(s)

