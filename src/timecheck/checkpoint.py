"""Capture, store, restore, and sanity-check challenged memory snapshots.

A checkpoint freezes the word array under challenge plus a small modeled
register file, as one uint64 array: the image words, then the registers.
Replay restores both bit-exactly into live device memory, a writable uint64
array of the same layout.

Checkpoint file format (little-endian, versioned, bit-exact):

    offset  size  field
    0       4     magic "TCCK"
    4       4     format_version (u32)
    8       8     word_count d (u64)
    16      4     register count (u32)
    20      2     region label length L (u16)
    22      L     region label (UTF-8)
    22+L    8*d   image words (u64 each)
    ...     8*R   register words (u64 each)

The file describes itself: renaming or copying it keeps its region.
"""

import math
import struct
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeMismatch, TimecheckError, VersionMismatch

MAGIC = b"TCCK"
FORMAT_VERSION = 2  # the only version this module writes or reads

# Shape-fidelity register model: 31 general-purpose + 3 control placeholders.
# The challenge scans these words appended after the image.
DEFAULT_REGISTER_COUNT = 34

_WORD_MASK = (1 << 64) - 1
_HEADER = struct.Struct("<4sIQIH")


def region_bytes(region_id: str) -> bytes:
    """A region label's UTF-8 bytes, which checkpoint files and CHALLENGE frames
    carry after a u16 length. A label that is not UTF-8 or needs more than
    65,535 bytes raises ValueError."""
    try:
        raw = region_id.encode()
    except UnicodeEncodeError as exc:
        raise ValueError(f"region_id is not UTF-8: {exc}") from exc
    if len(raw) > 0xFFFF:
        raise ValueError(f"region_id is {len(raw)} bytes in UTF-8, over 65535")
    return raw


@dataclass
class MemoryImage:
    """The words the streaming reference engines scan, with region metadata.

    Device and checkpoint memory is a uint64 array (DeviceEndpoint.words,
    Checkpoint.words). The streaming multipass and multipass_naive multiply
    words by powers of x as exact integers, which numpy's uint64 scalars
    would wrap, so words is a sequence whose items read back as Python ints:
    a list, a tuple, or an array("Q") at 8 bytes a word.
    """

    words: "list | tuple | array"
    region_id: str = "sram"

    def __post_init__(self):
        if len(self.words) < 1:
            raise ValueError("memory image needs at least one word")
        for w in self.words:
            if not 0 <= w <= _WORD_MASK:
                raise ValueError(f"word {w:#x} does not fit 64 bits")


def _frozen(words) -> np.ndarray:
    """A uint64 copy of words backed by immutable bytes, so it cannot be made writeable."""
    return np.frombuffer(np.asarray(words, dtype=np.uint64).tobytes(), dtype=np.uint64)


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """Immutable snapshot of image words and register file.

    words is one read-only uint64 array: the image words, then the
    register_count register words. It is exactly what a challenge scans.
    """

    words: np.ndarray
    register_count: int
    region_id: str = "sram"

    @property
    def word_count(self) -> int:
        """Image words, registers excluded."""
        return self.words.size - self.register_count


def checkpoint_record(words, register_count: int, region_id: str = "sram") -> Checkpoint:
    """Deep, immutable copy of live memory: image words, then register_count registers."""
    frozen = _frozen(words)
    if not 0 <= register_count < frozen.size:
        raise ValueError("a device needs at least one image word and "
                         "a non-negative register count")
    return Checkpoint(frozen, register_count, region_id)


def checkpoint_replay(cp: Checkpoint, words: np.ndarray) -> np.ndarray:
    """Restore live memory to the recorded image and registers, bit-exactly, in place."""
    if words.shape != cp.words.shape:
        raise SizeMismatch(f"live memory has {words.size} words, checkpoint has "
                           f"{cp.word_count} image and {cp.register_count} register words")
    np.copyto(words, cp.words)
    return words


def save_checkpoint(cp: Checkpoint, path):
    """Write the checkpoint in the binary format above."""
    region = region_bytes(cp.region_id)
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, cp.word_count, cp.register_count,
                              len(region)) + region)
        fh.write(cp.words.astype("<u8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; one that does not describe a checkpoint raises a
    TimecheckError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise VersionMismatch(f"{path}: not a checkpoint file (bad magic)")
    _, version, word_count, reg_count, region_len = _HEADER.unpack_from(raw, 0)
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format_version {version} unsupported")
    start = _HEADER.size + region_len
    expect = start + 8 * (word_count + reg_count)
    if len(raw) != expect:
        raise SizeMismatch(f"{path}: expected {expect} bytes, found {len(raw)}")
    if word_count < 1:
        raise SizeMismatch(f"{path}: a checkpoint needs at least one image word")
    try:
        region_id = raw[_HEADER.size:start].decode()
    except UnicodeDecodeError as exc:
        raise TimecheckError(f"{path}: region label is not UTF-8: {exc}") from exc
    words = _frozen(np.frombuffer(raw, dtype="<u8", offset=start))
    return Checkpoint(words, reg_count, region_id)


def scan_words(cp: Checkpoint) -> list:
    """The full word sequence a challenge scans, as Python ints: image then registers.

    Appending the registers extends the scanned length, so the challenge
    covers "CPU registers" without a second scan mode.
    """
    return cp.words.tolist()


@dataclass
class EntropyReport:
    """Per-block byte entropy summary for a memory image."""

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


def entropy_report(words, block_bytes: int = 4096, threshold: float = 4.0) -> EntropyReport:
    """Byte-histogram Shannon entropy (bits/byte) per fixed-size block of a word array.

    The words are read as little-endian u64s. The last block may be partial.
    Entropy is permutation-invariant within a block and bounded in [0, 8].
    """
    if block_bytes < 1:
        raise ValueError("block size must be positive")
    data = np.asarray(words, dtype=np.uint64).astype("<u8").tobytes()
    report = EntropyReport(threshold=threshold)
    for start in range(0, len(data), block_bytes):
        block = data[start:start + block_bytes]
        counts = Counter(block)
        n = len(block)
        h = -sum((c / n) * math.log2(c / n) for c in counts.values())
        report.block_entropies.append(h)
    return report
