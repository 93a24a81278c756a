"""Tests for checkpoint record/replay, serialization, and entropy."""

import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timecheck.checkpoint import (
    DEFAULT_REGISTER_COUNT,
    checkpoint_record,
    checkpoint_replay,
    entropy_report,
    load_checkpoint,
    save_checkpoint,
    scan_words,
)
from timecheck.device import make_device_state
from timecheck.errors import SizeMismatch, VersionMismatch


# words at the signed/unsigned boundaries, which a signed-int slip would mangle
_EDGE_WORDS = (0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 1)


@pytest.fixture
def words():
    return make_device_state(image_seed=1, image_words=64)


@pytest.fixture
def cp(words):
    return checkpoint_record(words, DEFAULT_REGISTER_COUNT)


class TestRecordReplay:
    def test_record_copies_bit_for_bit(self, words, cp):
        assert np.array_equal(cp.words, words)
        assert (cp.word_count, cp.register_count) == (64, DEFAULT_REGISTER_COUNT)
        assert not cp.words.flags.writeable

    @pytest.mark.parametrize("size, register_count", [(0, 0), (34, 34), (40, -1)],
                             ids=["empty", "no-image-words", "negative-registers"])
    def test_record_refuses_bad_layout(self, size, register_count):
        with pytest.raises(ValueError, match="at least one image word"):
            checkpoint_record(np.zeros(size, np.uint64), register_count)

    def test_record_is_deep_copy(self, words, cp):
        before = int(cp.words[0])
        words[0] ^= 0xFFFF
        assert cp.words[0] == before

    def test_replay_restores_after_mutation(self, words, cp):
        words[3] ^= 1 << 17
        words[64 + 5] = 0
        assert checkpoint_replay(cp, words) is words
        assert np.array_equal(words, cp.words)

    def test_replay_idempotent_on_identical_state(self, words, cp):
        before = words.copy()
        checkpoint_replay(cp, words)
        assert np.array_equal(words, before)

    def test_replay_onto_zeroed_state(self, words, cp):
        zeroed = np.zeros_like(words)
        checkpoint_replay(cp, zeroed)
        assert np.array_equal(zeroed, cp.words)

    def test_replay_single_adversary_write(self, words, cp):
        victim = random.Random(3).randrange(64)
        words[victim] ^= 1  # single-bit implant
        diff_before = [i for i in range(64) if words[i] != cp.words[i]]
        assert diff_before == [victim]
        checkpoint_replay(cp, words)
        diff_after = [i for i in range(64) if words[i] != cp.words[i]]
        assert diff_after == []

    def test_replay_size_mismatch(self, words, cp):
        for size in (words.size - 1, words.size + 1):
            small = np.zeros(size, np.uint64)
            with pytest.raises(SizeMismatch):
                checkpoint_replay(cp, small)
            assert not small.any()

    def test_record_replay_identity_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            live = make_device_state(rng.getrandbits(32), rng.randint(1, 200))
            cp = checkpoint_record(live, DEFAULT_REGISTER_COUNT)
            for _ in range(rng.randint(0, 30)):
                live[rng.randrange(cp.word_count)] = rng.getrandbits(64)
                live[cp.word_count + rng.randrange(cp.register_count)] = rng.getrandbits(64)
            checkpoint_replay(cp, live)
            assert np.array_equal(live, cp.words)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, cp):
        path = tmp_path / "dev.ck"
        save_checkpoint(cp, path)
        back = load_checkpoint(path)
        assert np.array_equal(back.words, cp.words)
        assert back.register_count == cp.register_count
        assert back.region_id == cp.region_id

    def test_sram_sized_image_round_trips(self, tmp_path):
        cp = checkpoint_record(make_device_state(image_seed=2, image_words=24576),
                               DEFAULT_REGISTER_COUNT)
        path = tmp_path / "sram.ck"
        save_checkpoint(cp, path)
        saved = path.read_bytes()
        save_checkpoint(load_checkpoint(path), tmp_path / "sram2.ck")
        assert (tmp_path / "sram2.ck").read_bytes() == saved

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ck"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(VersionMismatch):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path, cp):
        path = tmp_path / "trunc.ck"
        save_checkpoint(cp, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SizeMismatch):
            load_checkpoint(path)

    @settings(max_examples=80, deadline=None)
    @given(image_words=st.integers(1, 4096), register_count=st.integers(0, 64),
           seed=st.integers(0, 2**32 - 1),
           planted=st.lists(st.tuples(st.integers(0, 4096 + 63),
                                      st.sampled_from(_EDGE_WORDS) | st.integers(0, 2**64 - 1)),
                            max_size=8),
           region=st.sampled_from(["sram", "dram", "mémoire", "内存", "\U0001f9e0"])
           | st.text(st.characters(exclude_categories=("Cs",)), max_size=40))
    def test_codec_round_trip_property(self, image_words, register_count, seed, planted,
                                       region):
        # record -> save -> load -> replay onto zeroed memory is bit-exact
        rng = random.Random(seed)
        words = [rng.getrandbits(64) for _ in range(image_words + register_count)]
        for index, word in planted:
            words[index % len(words)] = word
        cp = checkpoint_record(words, register_count, region)
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp, "a.ck"), Path(tmp, "b.ck")
            save_checkpoint(cp, path)
            back = load_checkpoint(path)
            save_checkpoint(back, again)
            saved = path.read_bytes()
            assert again.read_bytes() == saved
        label = region.encode()
        assert saved[:22 + len(label)] == struct.pack(
            "<4sIQIH", b"TCCK", 2, image_words, register_count, len(label)) + label
        assert saved[22 + len(label):] == struct.pack(f"<{len(words)}Q", *words)
        assert (back.word_count, back.register_count) == (image_words, register_count)
        assert back.region_id == region
        zeroed = np.zeros(len(words), np.uint64)
        checkpoint_replay(back, zeroed)
        assert zeroed.tolist() == words

    def test_scan_words_appends_registers(self, words, cp):
        seq = scan_words(cp)
        assert seq[:64] == words[:64].tolist()
        assert seq[64:] == words[64:].tolist()
        assert len(seq) == 64 + DEFAULT_REGISTER_COUNT


class TestEntropy:
    def test_all_zero_image(self):
        rep = entropy_report([0] * 1024)
        assert all(h == 0.0 for h in rep.block_entropies)
        assert rep.low_entropy_fraction == 1.0

    def test_uniform_bytes_hit_eight_bits(self):
        # 512 words = 4096 bytes; every byte value appears exactly 16 times
        data = bytes(range(256)) * 16
        words = [int.from_bytes(data[i:i + 8], "little") for i in range(0, 4096, 8)]
        rep = entropy_report(words)
        assert rep.block_entropies == [8.0]

    def test_bounded_and_block_count(self):
        rep = entropy_report(np.arange(1000, dtype=np.uint64), block_bytes=512)
        assert len(rep.block_entropies) == (8000 + 511) // 512
        assert all(0.0 <= h <= 8.0 for h in rep.block_entropies)
        with pytest.raises(ValueError, match="block size must be positive"):
            entropy_report(np.arange(8, dtype=np.uint64), block_bytes=0)

    def test_permutation_invariant_within_block(self):
        rng = random.Random(4)
        words = [rng.getrandbits(64) for _ in range(512)]
        h1 = entropy_report(words).block_entropies
        rng.shuffle(words)
        h2 = entropy_report(words).block_entropies
        assert h1 == pytest.approx(h2)

    def test_reference_entropy_cross_check(self):
        # independent histogram computation over a mixed image
        import math
        from collections import Counter
        import struct

        rng = random.Random(5)
        words = [rng.getrandbits(64) if i % 2 else 0 for i in range(512)]
        rep = entropy_report(words, block_bytes=4096)
        data = struct.pack("<512Q", *words)
        counts = Counter(data)
        expect = -sum((c / 4096) * math.log2(c / 4096) for c in counts.values())
        assert rep.block_entropies[0] == pytest.approx(expect, abs=1e-12)


    def test_seeded_random_image_is_high_entropy(self):
        rng = random.Random(2)
        rep = entropy_report([rng.getrandbits(64) for _ in range(4096)])
        assert len(rep.block_entropies) == 8
        assert min(rep.block_entropies) >= 7.9
        assert rep.low_entropy_fraction == 0.0
