"""A fixed pure-Python reference kernel that measures the host's speed.

The benchmark's host is a few cores of a shared machine.  Other tenants
slow every core by a factor that changes from one second to the next and
drifts by tens of percent over minutes, and the slow-down is invisible to
the guest: process CPU time stretches with wall time.  So every worker
times this kernel right before the set-up and right after the timed call,
and ``run.py`` divides the program's times by the kernel's mean time per
repetition, measured in the same process.  The mean, not the median,
because the timed call also sits through every slow stretch.  The kernel never changes with the program, so a
slower program still shows in full, while a slower host shows in both
and cancels.

The kernel does the kind of work the program does (split text into tokens,
fold case, count in dicts, intersect sets, sort, join), on fixed input, so
its speed suffers from the same contention as the program's.  ``NOMINAL_S``
is its mean time per repetition on a quiet 2-core x86-64 VM (Intel Xeon,
CPython 3.11.7); it only scales the reported times back to seconds and
must stay fixed, or runs before and after a change stop being comparable.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.0043
REPETITIONS = 60

_WORDS = [
    "".join(random.Random(i).choice("abcdefghijklmnopqrstuvwxyz") for _ in range(3 + i % 7))
    for i in range(400)
]
_TEXT = [
    " ".join(_WORDS[(i * 7 + j * 13) % len(_WORDS)].capitalize() for j in range(12)) + "."
    for i in range(1000)
]


def _kernel() -> int:
    counts: dict[str, int] = {}
    seen: list[set[str]] = []
    for line in _TEXT:
        tokens = [t.strip(".,").lower() for t in line.split()]
        seen.append(set(tokens))
        for t in tokens:
            counts[t] = counts.get(t, 0) + 1
    shared = 0
    for a, b in zip(seen, seen[1:]):
        shared += len(a & b)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return shared + len(" ".join(k for k, _ in ranked))


def measure(repetitions: int = REPETITIONS) -> list[float]:
    """Times of ``repetitions`` runs of the kernel, in seconds."""
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times
