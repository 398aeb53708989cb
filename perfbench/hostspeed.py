"""Host speed: a fixed piece of interpreter work, timed while a run measures.

On a shared host the speed of pure Python code swings by up to 1.6x within
seconds, as other tenants come and go, and a slow stretch can last a whole
run.  The benchmark therefore times a fixed kernel next to the program and
reports every end-to-end time at the reference speed: a time t measured while
the kernel took k ms is reported as t * REF_MS / k.  A program that does
twice the work still reads twice as slow; a slow stretch of the host moves
the kernel and the program alike and cancels out.

This module imports only `time`, so that timing `import catmat.cli` right
after importing it does not find any of the program's imports preloaded.
"""

import time

# The kernel's time on the reference host, in ms.  Reported times read as
# seconds on a host where one kernel() call takes this long.
REF_MS = 0.75


def kernel() -> int:
    """Calls, a small dict, tuples, string formatting and arithmetic: the
    kind of work the program does, with a working set small enough to stay
    in cache."""
    d = {}
    for i in range(1000):
        key = (i % 17, str(i))
        d[key] = d.get(key, 0) + (i * 3) % 11
    return len(",".join(f"{a}:{b}" for a, b in d))


def kernel_ms(repeats: int) -> float:
    """Mean time of one kernel() call over `repeats` calls, in ms."""
    t = time.perf_counter()
    for _ in range(repeats):
        kernel()
    return (time.perf_counter() - t) * 1000 / repeats
