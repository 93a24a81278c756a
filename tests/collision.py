"""Empirical digest-collision rate, shared by the engine and acceptance tests."""

import random

from timecheck.checkpoint import MemoryImage
from timecheck.engine import ChallengeSpec, multipass
from timecheck.permutation import PermutationGenerator


def collision_probe(spec: ChallengeSpec, word_count: int, trials: int,
                    rng_seed: int = 0) -> float:
    """Empirical collision rate of the challenge digest under a fixed spec.

    Draws random pairs of distinct images of equal size, evaluates both, and
    returns the fraction with equal accumulators. Meant for small primes
    (p <= 2^16) where collisions are actually observable; the theoretical
    ceiling for a random challenge is 1/(p-1).
    """
    if spec.params.p > 1 << 16:
        raise ValueError("collision probe meant for small primes (p <= 2^16)")
    rng = random.Random(rng_seed)
    perm = PermutationGenerator(word_count, spec.perm_seed)
    collisions = 0
    for _ in range(trials):
        a = [rng.getrandbits(64) for _ in range(word_count)]
        b = [rng.getrandbits(64) for _ in range(word_count)]
        while b == a:
            b = [rng.getrandbits(64) for _ in range(word_count)]
        ra = multipass(MemoryImage(a), spec, perm)
        rb = multipass(MemoryImage(b), spec, perm)
        if ra.accumulator == rb.accumulator:
            collisions += 1
    return collisions / trials
