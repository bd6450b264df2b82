"""Blocks of array work spread over the usable cores.

numpy releases the GIL in its ufunc loops, BLAS calls and normal draws, so
blocks that spend their time there overlap on threads. The thread count is
one per core this process may run on (`os.sched_getaffinity`), so `taskset`
caps it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["for_each_block"]


def for_each_block(fill, starts) -> None:
    """Call `fill(start)` for every start, on min(usable cores, blocks)
    threads; with one thread it runs inline, in order. Each call must write
    only its own block, so the result does not depend on the thread count.
    An exception from any call is raised here, after every thread is joined."""
    workers = min(len(os.sched_getaffinity(0)), len(starts))
    if workers <= 1:
        for start in starts:
            fill(start)
        return
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, starts))
