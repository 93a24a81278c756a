"""Tests for the multi-pass challenge engine."""

import ast
import inspect
import random
import textwrap

import pytest

from timecheck.checkpoint import MemoryImage
from timecheck.coeffs import RandomSeeds, coefficient_at
from timecheck.engine import (
    ChallengeSpec,
    multipass,
    multipass_naive,
    random_spec,
)
from timecheck.errors import PermutationDomainMismatch, SpecOutOfField
from timecheck.field import M61, FieldParams, horner_step
from timecheck.permutation import IdentityPermutation

from collision import collision_probe

PRIMES = (13, 1009, M61)


def spec_for(p, x, r, passes=1, perm_seed=0):
    return ChallengeSpec(seeds=RandomSeeds(tuple(r), FieldParams(p, x)),
                         perm_seed=perm_seed, passes=passes)


def rand_instance(rng, p=None, dmax=64, pmax=4, kmax=4):
    p = p or rng.choice(PRIMES)
    passes = rng.randint(1, pmax)
    d = rng.randint(1, max(1, min(dmax, (p - 1) // passes)))
    spec = random_spec(p, rng.randint(1, kmax), passes, rng)
    image = MemoryImage([rng.getrandbits(64) for _ in range(d)])
    return image, spec


class TestMultipass:
    def test_single_word_single_pass(self):
        spec = spec_for(13, 7, [5])
        img = MemoryImage([41])
        # result = (v0 XOR s_idx) mod p; idx=0 so coeff index 0, s=5
        expected = (41 ^ coefficient_at(spec.seeds, 0)) % 13
        assert multipass(img, spec).accumulator == expected

    def test_two_word_identity_permutation(self):
        spec = spec_for(13, 3, [0])
        res = multipass(MemoryImage([5, 9]), spec, IdentityPermutation(2))
        # scan order v[1], v[0] with zero mask: 9*3 + 5 = 32 = 6 mod 13
        assert res.accumulator == 6
        assert res.words_scanned == 2

    def test_zero_mask_reduces_to_permuted_horner(self):
        rng = random.Random(8)
        p, x = 1009, 77
        d = 12
        words = [rng.getrandbits(64) for _ in range(d)]
        spec = spec_for(p, x, [0], perm_seed=4)
        res = multipass(MemoryImage(words), spec)
        from timecheck.permutation import PermutationGenerator
        g = PermutationGenerator(d, 4)
        acc = 0
        for i in range(d - 1, -1, -1):
            acc = horner_step(acc, x, words[g.get(i)] % p, p)
        assert res.accumulator == acc

    def test_x_zero_keeps_last_term_only(self):
        rng = random.Random(9)
        words = [rng.getrandbits(64) for _ in range(8)]
        spec = spec_for(M61, 0, [3, 1], perm_seed=2)
        res = multipass(MemoryImage(words), spec)
        from timecheck.permutation import PermutationGenerator
        g = PermutationGenerator(8, 2)
        last_idx = g.get(0)  # rank 0 is scanned last
        s = coefficient_at(spec.seeds, last_idx)
        assert res.accumulator == (words[last_idx] ^ s) % M61

    def test_spec_out_of_field(self):
        spec = spec_for(13, 3, [1], passes=4)
        with pytest.raises(SpecOutOfField):
            multipass(MemoryImage([1, 2, 3, 4]), spec)  # 4*4 > 12

    def test_permutation_domain_mismatch(self):
        spec = spec_for(13, 3, [1])
        with pytest.raises(PermutationDomainMismatch):
            multipass(MemoryImage([1, 2, 3]), spec, IdentityPermutation(4))

    def test_same_permutation_every_pass(self):
        # P passes with identity permutation == Horner over P repetitions
        rng = random.Random(10)
        d, passes, p, x = 5, 3, M61, 12345
        words = [rng.getrandbits(64) for _ in range(d)]
        spec = spec_for(p, x, [7, 11], passes=passes)
        res = multipass(MemoryImage(words), spec, IdentityPermutation(d))
        acc = 0
        for pass_no in range(passes):
            for i in range(d - 1, -1, -1):
                s = coefficient_at(spec.seeds, pass_no * d + i)
                acc = horner_step(acc, x, (words[i] ^ s) % p, p)
        assert res.accumulator == acc

    def test_digest_stable_and_distinct(self):
        a = spec_for(13, 3, [1, 2], perm_seed=5)
        b = spec_for(13, 3, [1, 2], perm_seed=5)
        c = spec_for(13, 3, [1, 2], perm_seed=6)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()


class TestOracleEquivalence:
    def test_matches_naive_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            image, spec = rand_instance(rng)
            a = multipass(image, spec)
            b = multipass_naive(image, spec)
            assert a.accumulator == b.accumulator
            assert a.words_scanned == b.words_scanned

    def test_naive_caps_word_count(self):
        spec = spec_for(M61, 3, [1])
        with pytest.raises(ValueError):
            multipass_naive(MemoryImage([0] * ((1 << 16) + 1)), spec)


class TestSensitivity:
    def test_single_bit_flip_changes_result(self):
        rng = random.Random(12)
        changed = 0
        trials = 300
        for _ in range(trials):
            image, spec = rand_instance(rng, p=M61, dmax=16, pmax=2)
            base = multipass(image, spec).accumulator
            words = list(image.words)
            words[rng.randrange(len(words))] ^= 1 << rng.randrange(64)
            flipped = multipass(MemoryImage(words), spec).accumulator
            changed += flipped != base
        assert changed >= trials - 1  # collision probability ~2/p

    def test_r_seed_sensitivity(self):
        rng = random.Random(13)
        trials, changed = 200, 0
        for _ in range(trials):
            image, spec = rand_instance(rng, p=M61, dmax=16, pmax=2)
            r = list(spec.seeds.r)
            r[rng.randrange(len(r))] = rng.randrange(M61)
            spec_r = ChallengeSpec(RandomSeeds(tuple(r), spec.params),
                                   spec.perm_seed, spec.passes, spec.region_id)
            changed += multipass(image, spec_r).accumulator != multipass(image, spec).accumulator
        assert changed / trials >= 0.99

    def test_perm_seed_sensitivity(self):
        # a fresh permutation seed only matters once the domain has room for
        # distinct scan orders, so keep d away from the trivial sizes
        rng = random.Random(18)
        trials, changed = 200, 0
        for _ in range(trials):
            d = rng.randint(8, 32)
            spec = random_spec(M61, rng.randint(1, 4), rng.randint(1, 2), rng)
            image = MemoryImage([rng.getrandbits(64) for _ in range(d)])
            spec_p = ChallengeSpec(spec.seeds, spec.perm_seed ^ rng.getrandbits(64),
                                   spec.passes, spec.region_id)
            changed += multipass(image, spec_p).accumulator != multipass(image, spec).accumulator
        assert changed / trials >= 0.99


class TestCollisionProbe:
    def test_determinism_on_identical_images(self):
        rng = random.Random(14)
        spec = spec_for(13, 5, [3, 7], perm_seed=21)
        words = [rng.getrandbits(64) for _ in range(4)]
        a = multipass(MemoryImage(words), spec)
        b = multipass(MemoryImage(list(words)), spec)
        assert a.accumulator == b.accumulator

    def test_small_prime_rate_near_uniform(self):
        rng = random.Random(15)
        spec = random_spec(1009, 2, 1, rng)
        rate = collision_probe(spec, word_count=8, trials=20_000, rng_seed=0)
        # expect ~1/1009 with 3-sigma Monte Carlo slack
        q = 1 / 1009
        sigma = (q * (1 - q) / 20_000) ** 0.5
        assert rate <= q + 4 * sigma
        assert rate >= max(0.0, q - 4 * sigma)

    def test_large_prime_rejected(self):
        rng = random.Random(16)
        spec = random_spec(M61, 2, 1, rng)
        with pytest.raises(ValueError):
            collision_probe(spec, 4, 100)


def test_streaming_path_materializes_nothing():
    # Constant working set: no list/set/dict displays, comprehensions, or
    # append calls inside multipass. The naive oracle is the negative control.
    src = textwrap.dedent(inspect.getsource(multipass))
    tree = ast.parse(src)
    for node in ast.walk(tree):
        assert not isinstance(node, (ast.List, ast.ListComp, ast.DictComp, ast.SetComp))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            assert node.func.attr != "append"

    naive_src = textwrap.dedent(inspect.getsource(multipass_naive))
    naive_tree = ast.parse(naive_src)
    assert any(
        isinstance(n, (ast.List, ast.ListComp)) or
        (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "append")
        for n in ast.walk(naive_tree)
    )
