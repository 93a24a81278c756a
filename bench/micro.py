"""Microbenchmarks for what the program inlines or calls too often to span.

Each one runs untraced, on the workload's own sizes: the scan length d, the
pass count and the coefficient degree k. Results are medians over repeats,
in nanoseconds or microseconds per call.
"""

import random
import statistics
import time

_now = time.perf_counter_ns


def _per_call_ns(fn, calls: int, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = _now()
        fn()
        samples.append((_now() - t0) / calls)
    return statistics.median(samples)


def run(d: int, passes: int, k: int, seed: int) -> dict:
    """Per-call costs of the engine's building blocks at (d, passes, k)."""
    from timecheck import checkpoint, coeffs, engine, field, permutation, protocol

    rng = random.Random(seed)
    p = field.M61
    params = field.FieldParams(p, rng.randrange(p))
    seeds = coeffs.RandomSeeds(tuple(rng.randrange(p) for _ in range(k)), params)
    spec = engine.ChallengeSpec(seeds=seeds, perm_seed=rng.getrandbits(64), passes=passes)

    n_coeff = min(d * passes, 20_000)
    coefficient_at = coeffs.coefficient_at

    def coeff_loop():
        for i in range(n_coeff):
            coefficient_at(seeds, i)

    gen = permutation.PermutationGenerator(d, spec.perm_seed)

    def perm_loop():
        get = gen.get
        for i in range(d):
            get(i)

    msg = protocol.ChallengeMessage(rng.getrandbits(64), spec)
    frame = protocol.encode_challenge(msg)
    n_frames = 2_000

    def encode_loop():
        for _ in range(n_frames):
            protocol.encode_challenge(msg)

    def decode_loop():
        for _ in range(n_frames):
            protocol.FrameDecoder().feed(frame)

    n_prime = 100

    def prime_loop():
        for _ in range(n_prime):
            field.is_prime(p)

    image = checkpoint.MemoryImage([rng.getrandbits(64) for _ in range(d)])
    get_ns = _per_call_ns(perm_loop, d, 3)
    ns_per_word = _per_call_ns(lambda: engine.multipass(image, spec), d * passes, 3)
    return {
        "coeffs.coefficient_at_ns": _per_call_ns(coeff_loop, n_coeff, 5),
        "permutation.get_ns": get_ns,
        "engine.ns_per_word": ns_per_word,
        "permutation.share_of_multipass": get_ns / ns_per_word,
        "protocol.encode_us": _per_call_ns(encode_loop, n_frames, 5) / 1e3,
        "protocol.decode_us": _per_call_ns(decode_loop, n_frames, 5) / 1e3,
        "field.is_prime_us": _per_call_ns(prime_loop, n_prime, 5) / 1e3,
    }
