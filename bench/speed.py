"""Host-speed reference: a fixed pure-Python loop timed next to the work.

The benchmark gets a few cores of a shared host whose speed drifts by
15-25% from one run to the next and within a run, and the drift moves raw
times of a whole run together.  A loop of fixed work, timed right after
every operation, drifts with them: an operation's time divided by the
loop's local time repeats where its raw time does not.  Normalised times
are given in reference seconds, those of a host on which the loop takes
REF_S (about this loop's time on a 2-core x86-64 cloud VM under
Python 3.11), so they read like ordinary times.
"""

from __future__ import annotations

import statistics
import time

#: iterations of the reference loop
ITERS = 3000
#: the loop's time, in seconds, on a host at reference speed
REF_S = 4.5e-4
#: executions on either side whose loop times set an execution's local speed
WINDOW = 4


def loop_s() -> float:
    """CPU seconds of one reference loop."""
    t = time.thread_time()
    s = 0.0
    for i in range(ITERS):
        s += (i * 1.0001) ** 0.5
    return time.thread_time() - t


def factors(loops: list[float]) -> list[float]:
    """Per execution, REF_S over the median loop time of the executions
    within WINDOW of it: multiply a raw time by it to get reference seconds."""
    n = len(loops)
    return [REF_S / statistics.median(loops[max(0, j - WINDOW):j + WINDOW + 1]) for j in range(n)]
