"""Tests for Z_p arithmetic."""

import random

import numpy as np
import pytest

from timecheck.engine import _geometric_m61
from timecheck.field import M61, FieldParams, horner_step, is_prime, m61_add, m61_mul

SMALL_PRIMES = (7, 13, 17, 1000003)


class TestPrimality:
    def test_known_primes(self):
        for p in (2, 3, 5, 7, 13, 17, 1000003, M61):
            assert is_prime(p)

    def test_known_composites(self):
        for n in (0, 1, 4, 9, 1000001, M61 + 2, (1 << 61) + 1):
            assert not is_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Fermat pseudoprimes to many bases; Miller-Rabin must still reject
        for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 825265):
            assert not is_prime(n)

    def test_large_square_rejected(self):
        assert not is_prime(4611686014132420609)  # (2^31-1)^2


class TestFieldParams:
    def test_accepts_valid(self):
        fp = FieldParams(13, 5)
        assert fp.p == 13 and fp.x == 5

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            FieldParams(12, 5)

    def test_rejects_point_outside_field(self):
        with pytest.raises(ValueError):
            FieldParams(13, 13)

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            FieldParams(1, 0)


def mul(a, b, p):
    """a * b mod p through the surviving scalar API: one Horner step, zero term."""
    return horner_step(a, b, 0, p)


def add(a, b, p):
    """a + b mod p through one Horner step at x = 1."""
    return horner_step(a, 1, b, p)


class TestMulMod:
    def test_small(self):
        assert mul(3, 4, 7) == 5

    def test_zero_annihilates(self):
        for b in (0, 1, 12, M61 - 1):
            assert mul(0, b, M61) == 0
        b = np.array([0, 1, 12, M61 - 1], dtype=np.uint64)
        assert m61_mul(np.zeros(4, dtype=np.uint64), b).tolist() == [0] * 4

    def test_near_word_size_against_bigint(self):
        a = b = (1 << 63) - 1
        assert mul(a, b, M61) == (a * b) % M61
        top = np.array([M61 - 1], dtype=np.uint64)
        assert m61_mul(top, top).tolist() == [(M61 - 1) ** 2 % M61]

    @pytest.mark.parametrize("p", [M61, 18446744073709551557])  # largest 64-bit prime
    def test_bigint_oracle_randomized(self, p):
        rng = random.Random(1234)
        pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(100_000)]
        for a, b in pairs:
            assert mul(a, b, p) == (a * b) % p
        if p == M61:
            a, b = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
            assert m61_mul(a, b).tolist() == [(x * y) % p for x, y in pairs]


class TestAddMod:
    def test_small(self):
        assert add(5, 6, 7) == 4

    def test_identity(self):
        rng = random.Random(2)
        for _ in range(100):
            a = rng.randrange(M61)
            assert add(a, 0, M61) == a

    def test_wraparound_symmetry(self):
        for p in SMALL_PRIMES + (M61,):
            assert add(p - 1, p - 1, p) == p - 2
        top = np.array([M61 - 1], dtype=np.uint64)
        m61_add(top, top.copy(), np.empty_like(top))
        assert top.tolist() == [M61 - 2]


class TestPowMod:
    """The M61 power tables the vectorized kernel builds its weights from."""

    def test_small(self):
        assert _geometric_m61(2, 11)[10] == 1024

    def test_zero_exponent_is_one(self):
        for b in (0, 1, 7, M61 - 1):
            assert _geometric_m61(b, 1).tolist() == [1]
        assert _geometric_m61(0, 3).tolist() == [1, 0, 0]

    def test_bigint_oracle(self):
        assert _geometric_m61(7, 14)[13] == 7 ** 13 % M61
        rng = random.Random(3)
        for _ in range(200):
            b = rng.randrange(M61)
            count = rng.randrange(1, 1 << 10)
            assert _geometric_m61(b, count).tolist() == [pow(b, e, M61) for e in range(count)]

    def test_exponent_addition_law(self):
        rng = random.Random(4)
        for _ in range(50):
            powers = _geometric_m61(rng.randrange(M61), 2000).tolist()
            e1 = rng.randrange(1000)
            e2 = rng.randrange(1000)
            assert powers[e1 + e2] == powers[e1] * powers[e2] % M61


class TestHornerStep:
    def test_small(self):
        assert horner_step(2, 3, 4, 7) == 3

    def test_first_step_passes_term_through(self):
        rng = random.Random(5)
        for _ in range(50):
            x = rng.randrange(M61)
            t = rng.randrange(M61)
            assert horner_step(0, x, t, M61) == t

    def test_zero_point_collapses_history(self):
        rng = random.Random(6)
        for _ in range(50):
            acc = rng.randrange(M61)
            t = rng.randrange(M61)
            assert horner_step(acc, 0, t, M61) == t

    @pytest.mark.parametrize("p", [13, 1000003, M61])
    def test_sequence_equals_power_sum(self, p):
        # Folding terms with Horner must equal sum(term_j * x^(n-1-j))
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 32)
            x = rng.randrange(p)
            terms = [rng.randrange(p) for _ in range(n)]
            acc = 0
            for t in terms:
                acc = horner_step(acc, x, t, p)
            direct = sum(t * pow(x, n - 1 - j, p) for j, t in enumerate(terms)) % p
            assert acc == direct
