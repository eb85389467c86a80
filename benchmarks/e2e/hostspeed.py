"""Host-speed reference for the gated time and rate metrics.

On a shared host the CPUs change speed under the benchmark: on a 2-vCPU
cloud guest the fixed pure-Python loop below (best of three) took
anywhere from 16 to 26 ms, switching between a fast and a slow state
that lasts from seconds to minutes.  A whole run can sit in either
state, so raw pass times and answer rates spread by 9–37 % between runs
of the same code.

Each timed unit of a run (a mining pass, a set-up, a closed-loop slice)
is therefore bracketed by a short fixed loop, :func:`slowdown`, and the
unit's time is scaled to what it would have taken at the loop's
reference speed.  The loop runs in the benchmark process while the
program is idle, so nothing the program does changes it; on a fast
stretch the slowdown is about 1 and scaled values read like raw ones.
The raw values are printed beside the scaled ones.
"""

from __future__ import annotations

import time

#: iterations of the reference loop
LOOP_ITERATIONS = 300_000

#: seconds the reference loop takes at reference speed (a fast stretch of
#: the host the bounds were set on)
REFERENCE_S = 0.016

#: loops per measurement; the fastest is kept
REPEATS = 3


def _loop() -> float:
    started = time.perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i
    return time.perf_counter() - started


def slowdown() -> float:
    """How many times slower than reference speed the host runs now."""
    return min(_loop() for _ in range(REPEATS)) / REFERENCE_S


def at_reference(seconds: float, before: float, after: float) -> float:
    """*seconds* scaled to reference speed, from the slowdowns measured
    just before and just after them."""
    return seconds * 2 / (before + after)
