"""Tests for the keyed Feistel permutation."""

import random

import pytest

from timecheck.errors import CycleWalkExceeded, DomainEmpty, RankOutOfRange
from timecheck.permutation import _WALK_CAP, IdentityPermutation, PermutationGenerator


def assert_bijective(n, seed, rounds=4):
    g = PermutationGenerator(n, seed, rounds)
    seen = set()
    for i in range(n):
        j = g.get(i)
        assert 0 <= j < n
        seen.add(j)
    assert len(seen) == n
    return g


def test_singleton_domain():
    g = PermutationGenerator(1, 777)
    assert g.get(0) == 0
    assert g.invert(0) == 0


def test_empty_domain_rejected():
    with pytest.raises(DomainEmpty):
        PermutationGenerator(0, 1)
    with pytest.raises(DomainEmpty):
        IdentityPermutation(0)


def test_rank_bounds():
    g = PermutationGenerator(10, 3)
    with pytest.raises(RankOutOfRange):
        g.get(10)
    with pytest.raises(RankOutOfRange):
        g.get(-1)
    with pytest.raises(RankOutOfRange):
        g.invert(10)


def test_small_domains_exhaustive():
    for n in list(range(1, 66)) + [100, 255, 256, 257, 1000, 1024]:
        for seed in (0, 42, 0xDEADBEEF):
            g = assert_bijective(n, seed)
            for i in range(n):
                assert g.invert(g.get(i)) == i


def test_cycle_walking_domain():
    # 1000 needs 10 bits; cycle walking active on the 24-value overhang
    g = assert_bijective(1000, 5)
    for i in range(1000):
        assert g.invert(g.get(i)) == i


def test_larger_domain_spot_round_trip():
    g = PermutationGenerator(1 << 20, 9)
    rng = random.Random(0)
    for _ in range(2000):
        i = rng.randrange(1 << 20)
        assert g.invert(g.get(i)) == i


def test_determinism():
    a = PermutationGenerator(4096, 31337)
    b = PermutationGenerator(4096, 31337)
    assert [a.get(i) for i in range(4096)] == [b.get(i) for i in range(4096)]


def test_seed_changes_output():
    a = PermutationGenerator(4096, 1)
    b = PermutationGenerator(4096, 2)
    assert [a.get(i) for i in range(256)] != [b.get(i) for i in range(256)]


def test_round_count_configurable():
    a = PermutationGenerator(512, 7, rounds=4)
    b = PermutationGenerator(512, 7, rounds=6)
    assert_bijective(512, 7, rounds=6)
    assert [a.get(i) for i in range(64)] != [b.get(i) for i in range(64)]


def test_odd_block_width():
    # n=5..8 uses b=3: unbalanced halves must still be invertible
    for n in (5, 6, 7, 8):
        for seed in (0, 1, 2):
            g = assert_bijective(n, seed)
            for i in range(n):
                assert g.invert(g.get(i)) == i


def test_first_output_roughly_uniform_over_seeds():
    # Weak unpredictability smoke test: the image of rank 0 over many seeds
    # should look uniform (chi-square at 1%); not a cryptographic claim.
    from scipy import special

    n = 256
    counts = [0] * n
    for seed in range(1000):
        counts[PermutationGenerator(n, seed).get(0)] += 1
    expected = 1000 / n
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    p = float(special.chdtrc(n - 1, chi2))
    assert p > 0.01, f"chi2={chi2:.1f} p={p:.5f}"


def test_identity_provider():
    g = IdentityPermutation(16)
    assert [g.get(i) for i in range(16)] == list(range(16))
    with pytest.raises(RankOutOfRange):
        g.get(16)


def test_module_level_wrappers():
    g = PermutationGenerator(64, 11)
    assert g.invert(g.get(5)) == 5


class _WideBlocks(PermutationGenerator):
    """A generator over [0, n) whose Feistel blocks are forced to `bits` bits."""

    def __init__(self, n, seed, bits):
        super().__init__(n, seed)
        self.bits, self._half_hi, self._half_lo = bits, bits - bits // 2, bits // 2


def _walk_length(gen, i):
    """Encryptions until rank i lands in [0, n), without the cap."""
    v, steps = gen._encrypt(i), 1
    while v >= gen.n:
        v, steps = gen._encrypt(v), steps + 1
    return steps


def test_walk_cap_raises():
    # 2 in-domain values among 2^16 blocks: no walk gets there in 64 tries
    g = _WideBlocks(2, 1, 16)
    assert min(_walk_length(g, i) for i in range(2)) > _WALK_CAP
    with pytest.raises(CycleWalkExceeded):
        g.get(0)
    with pytest.raises(CycleWalkExceeded):
        g.indices()


@pytest.mark.parametrize("seed, longest", [(61, _WALK_CAP), (254, _WALK_CAP + 1)])
def test_walk_cap_is_exact(seed, longest):
    # 4 in-domain values among 2^8 blocks: walks of about 64 encryptions;
    # a walk of exactly the cap succeeds, one more encryption raises
    g = _WideBlocks(4, seed, 8)
    walks = [_walk_length(g, i) for i in range(4)]
    assert max(walks) == longest
    for i, steps in enumerate(walks):
        if steps <= _WALK_CAP:
            assert g.get(i) < 4
        else:
            with pytest.raises(CycleWalkExceeded):
                g.get(i)
    if longest <= _WALK_CAP:
        assert g.indices().tolist() == [g.get(i) for i in range(4)]
    else:
        with pytest.raises(CycleWalkExceeded):
            g.indices()


def test_indices_needs_a_uint32_domain():
    # checked before any table is allocated
    with pytest.raises(ValueError, match="n <= 2\\^32"):
        PermutationGenerator((1 << 32) + 1, 5).indices()
    assert PermutationGenerator(1 << 32, 5).bits == 32


def test_long_walks_match_scalar():
    # 1,000 ranks among 2^12 blocks: walks of 4 encryptions on average
    g = _WideBlocks(1000, 3, 12)
    assert max(_walk_length(g, i) for i in range(1000)) > 10
    assert g.indices().tolist() == [g.get(i) for i in range(1000)]
