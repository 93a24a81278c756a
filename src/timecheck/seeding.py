"""Deterministic seed derivation.

All randomness in a run flows from one master seed through named sub-seeds,
so any report can be regenerated byte-for-byte. Derivation hashes
(master, label, index) instead of splitting RNG streams, which keeps trial
seeds independent of scheduling order.
"""

import hashlib
import random


def derive_seed(master: int, label: str, index: int = 0) -> int:
    """64-bit sub-seed for (master, label, index)."""
    h = hashlib.blake2b(f"{master}:{label}:{index}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little")


def derive_seeds(master: int, label: str, count: int):
    """derive_seed(master, label, i) for i in range(count), in order.

    The hash of the shared "master:label:" prefix is computed once and copied
    for each index, so a long run of trial seeds skips the formatting and the
    prefix hashing derive_seed repeats per call.
    """
    prefix = hashlib.blake2b(f"{master}:{label}:".encode(), digest_size=8)
    for index in range(count):
        h = prefix.copy()
        h.update(str(index).encode())
        yield int.from_bytes(h.digest(), "little")


def sub_rng(master: int, label: str, index: int = 0) -> random.Random:
    return random.Random(derive_seed(master, label, index))


def random_words(seed: int, count: int) -> list:
    """count seeded pseudorandom 64-bit words."""
    rng = random.Random(seed)
    return [rng.getrandbits(64) for _ in range(count)]
