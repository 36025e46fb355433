"""Times at a reference speed of the interpreter.

On a shared host the same Python code runs up to several times slower in phases
that last from a fraction of a second to minutes, while other tenants load
the cores; CPU time slows as much as wall time.  A median over one run
cannot remove a phase that outlasts it.  So every timed interval is taken
together with a fixed chunk of pure-Python work timed just before it and
just after it, and reported as

    measured time x REFERENCE_MS / mean time of the two chunks

that is, in milliseconds of a core that runs the chunk in REFERENCE_MS.  The
chunk does what the library does most (small tuples, sorting, dict counts,
list comprehensions) and never calls modalkit, so no change to modalkit can
move it.  Raw times stay in the provenance of each run.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

# The chunk's time when run back to back on an uncontended core of a 2-core
# x86-64 container with CPython 3.11.  Between ops it runs slower (the op has
# filled the caches), so reported times there are about half the raw ones.
# It only sets the scale.
REFERENCE_MS = 1.25


def chunk() -> int:
    seen: dict[tuple, int] = {}
    odd = 0
    for i in range(1500):
        t = tuple(sorted(((i * 7) % 12, (i * 5) % 12, (i * 11) % 12)))
        seen[t] = seen.get(t, 0) + 1
        odd += len([x for x in t if x & 1])
    return odd


def chunk_ms(chunks: int = 1) -> float:
    """Median time of `chunks` chunks run now, in ms."""
    times = []
    for _ in range(chunks):
        t = perf_counter()
        chunk()
        times.append((perf_counter() - t) * 1e3)
    return median(times)


def factor(before_ms: float, after_ms: float) -> float:
    """What takes a time measured between two chunk timings to the reference speed."""
    return 2 * REFERENCE_MS / (before_ms + after_ms)
