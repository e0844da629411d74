"""Machine-speed probe, so that timings can be stated at a reference speed.

On the shared virtual machine the benchmark was written on, the CPU time of a
fixed piece of pure-Python work drifted by up to a fifth over seconds to
minutes.  Dividing each op's CPU time by the probe's time at that moment
roughly halved the spread between repeated runs of one seed.  The probe is a
fixed piece of the same kind of work the library does (building permutation
tuples and interning them in dicts) that does not touch garside, so a change
to the library cannot move it.

`factor()` is probe time / REFERENCE_MS: about 1 on that machine, above 1
when the machine is slower.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import process_time as clock

REFERENCE_MS = 2.5  # a typical probe time on that machine

_rng = random.Random(20171219)
_PERMS = [tuple(_rng.sample(range(48), 48)) for _ in range(24)]


def _work() -> int:
    ids: dict[tuple, int] = {}
    memo: dict[tuple[int, int], int] = {}
    acc = 0
    for k in range(420):
        i, j = k % 24, (k * 7 + k // 24) % 24
        out = memo.get((i, j))
        if out is None:
            a, b = _PERMS[i], _PERMS[j]
            out = ids.setdefault(tuple(a[x] for x in b), len(ids))
            memo[(i, j)] = out
        acc += out
    return acc


def sample() -> float:
    """CPU time of one probe, in milliseconds (garbage collector paused)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        _work()
        return (clock() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


def factor(samples: int = 15) -> float:
    """The machine's current slowness relative to the reference."""
    return statistics.median(sample() for _ in range(samples)) / REFERENCE_MS
