"""Tests for checkpoint record/replay, serialization, and entropy."""

import random

import pytest

from timecheck.checkpoint import (
    MemoryImage,
    checkpoint_record,
    checkpoint_replay,
    entropy_report,
    load_checkpoint,
    save_checkpoint,
    scan_words,
)
from timecheck.device import DeviceState, make_device_state
from timecheck.errors import NotQuiesced, SizeMismatch, VersionMismatch


@pytest.fixture
def state():
    return make_device_state(image_seed=1, image_words=64)


class TestRecordReplay:
    def test_record_copies_bit_for_bit(self, state):
        cp = checkpoint_record(state)
        assert tuple(cp.image.words) == tuple(state.image.words)
        assert tuple(cp.register_file) == tuple(state.registers)

    def test_record_requires_quiesce(self, state):
        state.quiesced = False
        with pytest.raises(NotQuiesced):
            checkpoint_record(state)

    def test_record_is_deep_copy(self, state):
        cp = checkpoint_record(state)
        before = cp.image.words[0]
        state.image.words[0] ^= 0xFFFF
        assert cp.image.words[0] == before

    def test_replay_restores_after_mutation(self, state):
        cp = checkpoint_record(state)
        state.image.words[3] ^= 1 << 17
        state.registers[5] = 0
        checkpoint_replay(cp, state)
        assert list(state.image.words) == list(cp.image.words)
        assert list(state.registers) == list(cp.register_file)

    def test_replay_idempotent_on_identical_state(self, state):
        cp = checkpoint_record(state)
        before = list(state.image.words)
        checkpoint_replay(cp, state)
        assert list(state.image.words) == before

    def test_replay_onto_zeroed_state(self, state):
        cp = checkpoint_record(state)
        zeroed = DeviceState(MemoryImage([0] * 64), [0] * len(state.registers))
        checkpoint_replay(cp, zeroed)
        assert list(zeroed.image.words) == list(cp.image.words)

    def test_replay_single_adversary_write(self, state):
        cp = checkpoint_record(state)
        victim = random.Random(3).randrange(64)
        state.image.words[victim] ^= 1  # single-bit implant
        diff_before = [i for i in range(64) if state.image.words[i] != cp.image.words[i]]
        assert diff_before == [victim]
        checkpoint_replay(cp, state)
        diff_after = [i for i in range(64) if state.image.words[i] != cp.image.words[i]]
        assert diff_after == []

    def test_replay_size_mismatch(self, state):
        cp = checkpoint_record(state)
        small = DeviceState(MemoryImage([0] * 63), [0] * len(state.registers))
        with pytest.raises(SizeMismatch):
            checkpoint_replay(cp, small)

    def test_replay_version_mismatch(self, state):
        cp = checkpoint_record(state)
        bad = type(cp)(cp.image, cp.register_file, cp.created_at, format_version=99)
        with pytest.raises(VersionMismatch):
            checkpoint_replay(bad, state)

    def test_record_replay_identity_randomized(self):
        rng = random.Random(17)
        for _ in range(25):
            st = make_device_state(rng.getrandbits(32), rng.randint(1, 200))
            cp = checkpoint_record(st)
            for _ in range(rng.randint(0, 30)):
                st.image.words[rng.randrange(st.image.word_count)] = rng.getrandbits(64)
                st.registers[rng.randrange(len(st.registers))] = rng.getrandbits(64)
            checkpoint_replay(cp, st)
            assert tuple(st.image.words) == tuple(cp.image.words)
            assert tuple(st.registers) == tuple(cp.register_file)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, state):
        cp = checkpoint_record(state)
        path = tmp_path / "dev.ck"
        save_checkpoint(cp, path)
        back = load_checkpoint(path)
        assert tuple(back.image.words) == tuple(cp.image.words)
        assert back.register_file == cp.register_file
        assert back.format_version == cp.format_version
        assert back.image.region_id == cp.image.region_id

    def test_sram_sized_image_round_trips(self, tmp_path):
        st = make_device_state(image_seed=2, image_words=24576)
        cp = checkpoint_record(st)
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

    def test_truncated_file_rejected(self, tmp_path, state):
        cp = checkpoint_record(state)
        path = tmp_path / "trunc.ck"
        save_checkpoint(cp, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(SizeMismatch):
            load_checkpoint(path)

    def test_scan_words_appends_registers(self, state):
        cp = checkpoint_record(state)
        seq = scan_words(cp)
        assert seq[:64] == list(cp.image.words)
        assert seq[64:] == list(cp.register_file)


class TestEntropy:
    def test_all_zero_image(self):
        rep = entropy_report(MemoryImage([0] * 1024))
        assert all(h == 0.0 for h in rep.block_entropies)
        assert rep.low_entropy_fraction == 1.0

    def test_uniform_bytes_hit_eight_bits(self):
        # 512 words = 4096 bytes; every byte value appears exactly 16 times
        data = bytes(range(256)) * 16
        words = [int.from_bytes(data[i:i + 8], "little") for i in range(0, 4096, 8)]
        rep = entropy_report(MemoryImage(words))
        assert rep.block_entropies == [8.0]

    def test_bounded_and_block_count(self):
        img = MemoryImage(list(range(1000)))
        rep = entropy_report(img, block_bytes=512)
        assert len(rep.block_entropies) == (8000 + 511) // 512
        assert all(0.0 <= h <= 8.0 for h in rep.block_entropies)

    def test_permutation_invariant_within_block(self):
        rng = random.Random(4)
        words = [rng.getrandbits(64) for _ in range(512)]
        h1 = entropy_report(MemoryImage(words)).block_entropies
        rng.shuffle(words)
        h2 = entropy_report(MemoryImage(words)).block_entropies
        assert h1 == pytest.approx(h2)

    def test_reference_entropy_cross_check(self):
        # independent histogram computation over a mixed image
        import math
        from collections import Counter
        import struct

        rng = random.Random(5)
        words = [rng.getrandbits(64) if i % 2 else 0 for i in range(512)]
        img = MemoryImage(words)
        rep = entropy_report(img, block_bytes=4096)
        data = struct.pack("<512Q", *words)
        counts = Counter(data)
        expect = -sum((c / 4096) * math.log2(c / 4096) for c in counts.values())
        assert rep.block_entropies[0] == pytest.approx(expect, abs=1e-12)


    def test_seeded_random_image_is_high_entropy(self):
        rng = random.Random(2)
        rep = entropy_report(MemoryImage([rng.getrandbits(64) for _ in range(4096)]))
        assert len(rep.block_entropies) == 8
        assert min(rep.block_entropies) >= 7.9
        assert rep.low_entropy_fraction == 0.0
