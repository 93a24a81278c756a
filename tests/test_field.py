"""Tests for Z_p arithmetic."""

import random

import numpy as np
import pytest

from timecheck.checkpoint import MemoryImage
from timecheck.coeffs import RandomSeeds
from timecheck.engine import (
    ChallengeSpec,
    _geometric_m61,
    multipass,
    multipass_m61,
    multipass_naive,
)
from timecheck.field import M61, FieldParams, is_prime, m61_add, m61_mul
from timecheck.permutation import PermutationGenerator

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


class TestMulMod:
    def test_zero_annihilates(self):
        b = np.array([0, 1, 12, M61 - 1], dtype=np.uint64)
        assert m61_mul(np.zeros(4, dtype=np.uint64), b).tolist() == [0] * 4

    def test_near_word_size_against_bigint(self):
        top = np.array([M61 - 1], dtype=np.uint64)
        assert m61_mul(top, top).tolist() == [(M61 - 1) ** 2 % M61]

    def test_bigint_oracle_randomized(self):
        rng = random.Random(1234)
        pairs = [(rng.randrange(M61), rng.randrange(M61)) for _ in range(100_000)]
        a, b = (np.array(col, dtype=np.uint64) for col in zip(*pairs))
        assert m61_mul(a, b).tolist() == [(x * y) % M61 for x, y in pairs]


class TestAddMod:
    def test_wraparound_symmetry(self):
        top = np.array([M61 - 1], dtype=np.uint64)
        m61_add(top, top.copy(), np.empty_like(top))
        assert top.tolist() == [M61 - 2]


class TestPowMod:
    """The M61 power tables the vectorized kernel builds its weights from."""

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


def fold(words, p, x, perm_seed=0):
    """Accumulators of every engine that can take (p, x) over words with a zero mask."""
    spec = ChallengeSpec(seeds=RandomSeeds((0,), FieldParams(p, x)), perm_seed=perm_seed,
                         passes=1)
    accs = {multipass(MemoryImage(words), spec).accumulator,
            multipass_naive(MemoryImage(words), spec).accumulator}
    if p == M61:
        accs.add(multipass_m61(np.array(words, dtype=np.uint64), spec).accumulator)
    assert len(accs) == 1, accs
    return accs.pop()


class TestHornerStep:
    # the engines' Horner step (acc * x + term) mod p, seen through a
    # zero-mask single pass where each term is a scanned word mod p

    def test_small(self):
        # perm seed 0 over two words is the identity: v[1] = 2 is folded first, then v[0] = 4
        assert fold([4, 2], 7, 3) == 3

    def test_first_step_passes_term_through(self):
        rng = random.Random(5)
        for _ in range(50):
            x = rng.randrange(M61)
            t = rng.randrange(M61)
            assert fold([t], M61, x) == t

    def test_zero_point_collapses_history(self):
        rng = random.Random(6)
        for _ in range(50):
            words = [rng.randrange(M61) for _ in range(rng.randint(1, 8))]
            seed = rng.getrandbits(32)
            last = words[PermutationGenerator(len(words), seed).get(0)]  # rank 0 is scanned last
            assert fold(words, M61, 0, seed) == last

    @pytest.mark.parametrize("p", [13, 1000003, M61])
    def test_sequence_equals_power_sum(self, p):
        # Folding terms with Horner must equal sum(term_j * x^(n-1-j))
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, min(32, p - 1))
            x = rng.randrange(p)
            words = [rng.getrandbits(64) for _ in range(n)]
            seed = rng.getrandbits(32)
            g = PermutationGenerator(n, seed)
            terms = [words[g.get(i)] % p for i in range(n - 1, -1, -1)]
            direct = sum(t * pow(x, n - 1 - j, p) for j, t in enumerate(terms)) % p
            assert fold(words, p, x, seed) == direct
