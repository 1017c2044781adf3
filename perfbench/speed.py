"""Machine speed, measured with a fixed reference loop.

The machine this benchmark runs on is shared, and its speed drifts by tens
of percent over seconds. The drift does not come from descheduling: CPU
time tracks wall time. Timings are therefore rescaled. Each stretch of work
is bracketed by two runs of `reference_loop`, and its duration is
multiplied by NOMINAL_S / (their mean duration). The result is the time
the work would take at the speed where the loop takes NOMINAL_S. That
speed is the loop's time on an uncontended core of the machine the
baseline was recorded on.
"""

from __future__ import annotations

from time import perf_counter

ITERATIONS = 6000
NOMINAL_S = 0.002


def reference_loop() -> int:
    """Fixed pure-Python work with the set and dict traffic of the library."""
    table: dict[int, frozenset] = {}
    acc = 0
    for i in range(ITERATIONS):
        key = i & 127
        table[key] = frozenset((i & 7, i & 63, key))
        acc += len(table.get((i * 7) & 127, ()))
    return acc


def sample() -> tuple[float, float]:
    """Start and end of one timed run of the reference loop."""
    t = perf_counter()
    reference_loop()
    return t, perf_counter()


def factor(before: tuple[float, float], after: tuple[float, float]) -> float:
    """Scale for the work between two reference runs."""
    return 2 * NOMINAL_S / ((before[1] - before[0]) + (after[1] - after[0]))


def timed(fn, *args):
    """fn(*args), its result and its duration at nominal speed."""
    before = sample()
    out = fn(*args)
    after = sample()
    return out, (after[0] - before[1]) * factor(before, after)
