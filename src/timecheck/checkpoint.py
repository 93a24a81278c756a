"""Capture, store, restore, and sanity-check challenged memory snapshots.

A checkpoint freezes the word array under challenge plus a small modeled
register file. Replay restores both bit-exactly.

Checkpoint file format (little-endian, versioned, bit-exact):

    offset  size  field
    0       4     magic "TCCK"
    4       4     format_version (u32)
    8       8     word_count d (u64)
    16      4     register count (u32)
    20      8*d   image words (u64 each)
    ...     8*R   register words (u64 each)

Metadata that does not affect replay (region label, creation time) goes to
an optional JSON sidecar next to the binary file.
"""

import json
import math
import struct
import time
from collections import Counter
from dataclasses import dataclass, field

from .errors import NotQuiesced, SizeMismatch, VersionMismatch

MAGIC = b"TCCK"
FORMAT_VERSION = 1
SUPPORTED_VERSIONS = (1,)

# Shape-fidelity register model: 31 general-purpose + 3 control placeholders.
# The challenge scans these words appended after the image.
DEFAULT_REGISTER_COUNT = 34

_WORD_MASK = (1 << 64) - 1
_HEADER = struct.Struct("<4sIQI")


@dataclass
class MemoryImage:
    """The word array being challenged, with region metadata.

    Live device state uses a mutable list; checkpoints hold tuples so the
    recorded copy cannot be modified in place.
    """

    words: "list | tuple"
    region_id: str = "sram"

    def __post_init__(self):
        if len(self.words) < 1:
            raise ValueError("memory image needs at least one word")
        for w in self.words:
            if not 0 <= w <= _WORD_MASK:
                raise ValueError(f"word {w:#x} does not fit 64 bits")

    @property
    def word_count(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Checkpoint:
    """Immutable snapshot of image words and register file."""

    image: MemoryImage
    register_file: tuple
    created_at: float
    format_version: int = FORMAT_VERSION


def checkpoint_record(state) -> Checkpoint:
    """Deep, immutable copy of the device's image and register file.

    Refuses to run while the device reports active interference sources
    (unquiesced DMA masters, live peripherals).
    """
    if not getattr(state, "quiesced", False):
        raise NotQuiesced("device has active interference sources; quiesce before recording")
    return Checkpoint(
        image=MemoryImage(tuple(state.image.words), state.image.region_id),
        register_file=tuple(state.registers),
        created_at=time.time(),
    )


def checkpoint_replay(cp: Checkpoint, state):
    """Restore image and register file to the recorded values, bit-exactly."""
    if cp.format_version not in SUPPORTED_VERSIONS:
        raise VersionMismatch(f"checkpoint format_version {cp.format_version} unsupported")
    if len(state.image.words) != cp.image.word_count:
        raise SizeMismatch(
            f"live region has {len(state.image.words)} words, "
            f"checkpoint has {cp.image.word_count}"
        )
    if len(state.registers) != len(cp.register_file):
        raise SizeMismatch(
            f"live register file has {len(state.registers)} words, "
            f"checkpoint has {len(cp.register_file)}"
        )
    state.image.words[:] = cp.image.words
    state.registers[:] = cp.register_file
    return state


def save_checkpoint(cp: Checkpoint, path, sidecar: bool = True):
    """Write the checkpoint in the binary format above (+ JSON sidecar)."""
    words = cp.image.words
    regs = cp.register_file
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, cp.format_version, len(words), len(regs)))
        fh.write(struct.pack(f"<{len(words)}Q", *words))
        if regs:
            fh.write(struct.pack(f"<{len(regs)}Q", *regs))
    if sidecar:
        meta = {
            "region_id": cp.image.region_id,
            "created_at": cp.created_at,
            "format_version": cp.format_version,
        }
        with open(str(path) + ".json", "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file, picking up the JSON sidecar when present."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise VersionMismatch(f"{path}: not a checkpoint file (bad magic)")
    _, version, word_count, reg_count = _HEADER.unpack_from(raw, 0)
    if version not in SUPPORTED_VERSIONS:
        raise VersionMismatch(f"{path}: format_version {version} unsupported")
    expect = _HEADER.size + 8 * (word_count + reg_count)
    if len(raw) != expect:
        raise SizeMismatch(f"{path}: expected {expect} bytes, found {len(raw)}")
    words = list(struct.unpack_from(f"<{word_count}Q", raw, _HEADER.size))
    regs = struct.unpack_from(f"<{reg_count}Q", raw, _HEADER.size + 8 * word_count)
    region_id = "sram"
    created_at = 0.0
    try:
        with open(str(path) + ".json") as fh:
            meta = json.load(fh)
        region_id = meta.get("region_id", region_id)
        created_at = meta.get("created_at", created_at)
    except FileNotFoundError:
        pass
    image = MemoryImage(tuple(words), region_id)
    return Checkpoint(image=image, register_file=tuple(regs), created_at=created_at, format_version=version)


def scan_words(cp: Checkpoint) -> list:
    """The full word sequence a challenge scans: image then register file.

    Appending the registers extends the scanned length, so the challenge
    covers "CPU registers" without a second scan mode.
    """
    return list(cp.image.words) + list(cp.register_file)


@dataclass
class EntropyReport:
    """Per-block byte entropy summary for a memory image."""

    block_bytes: int
    threshold: float
    block_entropies: list = field(default_factory=list)

    @property
    def low_entropy_fraction(self) -> float:
        if not self.block_entropies:
            return 0.0
        low = sum(1 for h in self.block_entropies if h < self.threshold)
        return low / len(self.block_entropies)

    @property
    def min_entropy(self) -> float:
        return min(self.block_entropies)


def entropy_report(image: MemoryImage, block_bytes: int = 4096, threshold: float = 4.0) -> EntropyReport:
    """Byte-histogram Shannon entropy (bits/byte) per fixed-size block.

    The last block may be partial. Entropy is permutation-invariant within a
    block and bounded in [0, 8].
    """
    if block_bytes < 1:
        raise ValueError("block size must be positive")
    data = struct.pack(f"<{image.word_count}Q", *image.words)
    report = EntropyReport(block_bytes=block_bytes, threshold=threshold)
    for start in range(0, len(data), block_bytes):
        block = data[start:start + block_bytes]
        counts = Counter(block)
        n = len(block)
        h = -sum((c / n) * math.log2(c / n) for c in counts.values())
        report.block_entropies.append(h)
    return report
