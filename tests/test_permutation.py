"""Tests for the keyed Feistel permutation."""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.errors import CycleWalkExceeded, DomainEmpty, RankOutOfRange
from timecheck.permutation import _WALK_CAP, PermutationGenerator


def test_empty_domain_rejected():
    with pytest.raises(DomainEmpty):
        PermutationGenerator(0, 1)


def test_rank_bounds():
    g = PermutationGenerator(10, 3)
    with pytest.raises(RankOutOfRange):
        g.get(10)
    with pytest.raises(RankOutOfRange):
        g.get(-1)
    with pytest.raises(RankOutOfRange):
        g.invert(10)


def test_larger_domain_spot_round_trip():
    g = PermutationGenerator(1 << 20, 9)
    rng = random.Random(0)
    for _ in range(2000):
        i = rng.randrange(1 << 20)
        assert g.invert(g.get(i)) == i


def test_seed_changes_output():
    a = PermutationGenerator(4096, 1)
    b = PermutationGenerator(4096, 2)
    assert [a.get(i) for i in range(256)] != [b.get(i) for i in range(256)]


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


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 1 << 14), seed=st.integers(0, (1 << 64) - 1), data=st.data())
def test_permutation_properties(n, seed, data):
    g = PermutationGenerator(n, seed)
    pi = g.indices()
    assert sorted(pi.tolist()) == list(range(n))
    ranks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=50))
    for i in ranks:
        j = g.get(i)
        assert j == pi[i]
        assert g.invert(j) == i


class _WideBlocks(PermutationGenerator):
    """A generator over [0, n) whose Feistel blocks are forced to `bits` bits."""

    def __init__(self, n, seed, bits):
        super().__init__(n, seed)
        self.bits = bits
        self._build_tables()


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
    # each decryption walk back from an in-domain value is some encryption walk
    for j in range(2):
        with pytest.raises(CycleWalkExceeded, match=f"after {_WALK_CAP} decryptions"):
            g.invert(j)


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
    # checked before the 2^bits-entry domain table is allocated; the round
    # tables, 2^ceil(bits/2) entries each, come with the generator
    with pytest.raises(ValueError, match="n <= 2\\^32"):
        PermutationGenerator((1 << 32) + 1, 5).indices()
    assert PermutationGenerator(1 << 32, 5).bits == 32


def test_long_walks_match_scalar():
    # 1,000 ranks among 2^12 blocks: walks of 4 encryptions on average
    g = _WideBlocks(1000, 3, 12)
    assert max(_walk_length(g, i) for i in range(1000)) > 10
    assert g.indices().tolist() == [g.get(i) for i in range(1000)]


# Fixed sha256 values of the scan order: every engine test compares engines
# that share one permutation, so only these notice a changed round function,
# key schedule, half-block split or walk.
PIN_SEED = 0x5EED_F00D


@pytest.mark.parametrize("n, digest", [
    (1, "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"),
    (5, "1751d3cd7c09b4b0189b16e756420ca85c5033c2d4522f3326795a12d255bd8f"),
    (1000, "81490892af3a2f02e360ea5ce22d0efe577a19c3e964383909313fca1b7034b6"),
    (2048, "6c9679db2b93c64c568914cffe0ec678ff56e906333478ca5dc5cf8710525904"),
    (24640, "aee8f89dfb339c0bd83f374e41728f829db2f555052b6895651bd4a2cf5fdc3b"),
    (65536, "735e1091daf34e5e109566ca63d65d676d31ccfdb599c133c70174f62e821997"),
])
def test_indices_pinned(n, digest):
    pi = PermutationGenerator(n, PIN_SEED).indices()
    assert hashlib.sha256(pi.astype("<u4").tobytes()).hexdigest() == digest


def test_get_and_invert_pinned():
    g = PermutationGenerator(1 << 20, PIN_SEED)
    rng = random.Random(20)
    ranks = [rng.randrange(1 << 20) for _ in range(2000)]
    got = struct.pack("<2000I", *map(g.get, ranks))
    inverted = struct.pack("<2000I", *map(g.invert, ranks))
    assert hashlib.sha256(got).hexdigest() == \
        "a18063de8d282a4adb3e36f54dc7e869cadc9cc6a260964cb6494332e393ad7e"
    assert hashlib.sha256(inverted).hexdigest() == \
        "72b5339943a0ec92fdaaa810bab64e73431df2607fb01edcdc0df520e3d938bf"
