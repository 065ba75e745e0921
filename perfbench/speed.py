"""The machine's speed, measured with a fixed reference kernel.

On a shared host the same pure-Python work takes from 13 to 23 ms from one
second to the next, and its median over a run moves by up to a quarter from
one run to the next, as other tenants load the machine.  The kernel below
slows with everything else the interpreter runs, so an op's wall time
multiplied by ``REF_S`` over the kernel's time around it, the op's time at
the reference speed, cancels most of that drift while still moving with
the op's own cost.
"""

from __future__ import annotations

import random
import statistics
import time

# The kernel's median time on the machine of the first baseline (see
# BASELINE.md) in a quiet phase, so that scaled times read like its wall
# times.
REF_S = 0.5e-3
_TABLE = [random.Random(0).getrandbits(30) for _ in range(4096)]
_INDEX = {x: i for i, x in enumerate(_TABLE)}


def _kernel() -> int:
    table, index = _TABLE, _INDEX
    acc = 0
    for i in range(3000):
        acc ^= table[(i * 7919) & 4095] + index[table[(i * 31) & 4095]]
    return acc


def reference_seconds() -> float:
    """Wall seconds of the kernel: integer arithmetic, list indexing and
    dict lookups, the interpreter work the library's ops are made of.  It
    runs once untimed and then timed, so its table is in the cache and its
    time does not depend on what ran before it; it allocates no container,
    so it never triggers the garbage collector either."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_samples) -> float:
    """``seconds`` of wall time at the reference speed, given the kernel's
    times measured around it."""
    return seconds * REF_S / statistics.median(ref_samples)
