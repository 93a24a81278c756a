"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one core drifts by tens of percent over tens
of seconds, and wall-clock medians of separate runs drift with it. The
benchmark therefore times this kernel between consecutive operations and
reports each operation's wall time in units of the kernel's time
(`op_p50_ref`). The kernel mixes the two kinds of work the package does:
64-bit multiply-xor-shift and modular Horner steps like the engine, and
hashing, seeded RNG draws and small numpy reductions like the timing model
and the statistics. It takes about 10 ms.

Never edit this file: its cost is the unit of `op_p50_ref`, so any change
re-scales that metric for every workload.
"""

import hashlib
import random
import time

import numpy as np

_MASK64 = (1 << 64) - 1
_M61 = (1 << 61) - 1


def _arithmetic(n: int = 9000) -> int:
    acc = 0
    v = 12345
    for i in range(n):
        v ^= v >> 30
        v = v * 0xBF58476D1CE4E5B9 & _MASK64
        v ^= v >> 27
        acc = (acc * 1000003 + (v ^ i) % _M61) % _M61
    return acc


def _objects(n: int = 40) -> list:
    out = []
    for i in range(n):
        h = hashlib.blake2b(f"{i}:reference:{i}".encode(), digest_size=8).digest()
        rng = random.Random(int.from_bytes(h, "little"))
        a = np.asarray([rng.gauss(0.0, 1.0) for _ in range(20)])
        out.append((float(np.median(a)), float(np.percentile(a, 97.5)),
                    pow(rng.randrange(_M61), _M61 - 2, _M61)))
    return out


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _arithmetic()
    _objects()
    return time.perf_counter() - t0
