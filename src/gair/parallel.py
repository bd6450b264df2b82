"""Blocks of array work spread over the usable cores, and the one owner of
BLAS's thread count.

numpy releases the GIL in its ufunc loops, BLAS calls and normal draws, so
blocks that spend their time there overlap on threads. The thread count is
one per core this process may run on (`os.sched_getaffinity`), so `taskset`
caps it.

OpenBLAS runs its own worker threads, and after each threaded call a worker
spins before it sleeps: after one 2-thread (4096, 64) @ (64, 64) sgemm the
process burned 0.12 s of CPU during a 0.5 s sleep (2-core x86 box, numpy
2.4.6, scipy-openblas 0.3.31). A spinning worker holds the core a block
thread would use. So at import every OpenBLAS library loaded in the
process (numpy's and scipy's) is set to one thread, and only graph work
gets the count the library loaded with back: `graph_blas_threads()` wraps
`tensor.enable_grad()` and `tensor.backward`. That count is the
OPENBLAS_NUM_THREADS cap, so the variable still caps graph work, and a
process that loaded with one thread never gets more. Pinning only around
the block threads would not do: setting one thread does not stop a worker
that is still spinning from the last threaded call, and in paired
`heatmap` benchmark runs that narrower pin took `heatmap_loc` from 77 to
131 ms. The pin holds for the whole process: a caller's own linear algebra
outside `enable_grad()` runs one BLAS thread too, unless it enters
`graph_blas_threads()`. Where no OpenBLAS library is found, the thread
count is left alone and `blas_pinned()` is False, so the encoders do not
split their batches.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

__all__ = ["usable_cores", "row_blocks", "for_each_block", "blas_pinned", "graph_blas_threads"]


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def row_blocks(n: int, size: int) -> list:
    """Slices of `size` rows covering range(n), one empty slice when n is 0.
    A lone last row joins the block before it: a one-row product takes
    BLAS's matrix-vector path, which rounds differently from the
    matrix-matrix path of a larger block."""
    size = max(size, 1)
    return [slice(s, s + size if s + size < n - 1 else n) for s in range(0, max(n - 1, 1), size)]


def for_each_block(fill, blocks) -> None:
    """Call `fill(block)` for every block, on min(usable cores, blocks)
    threads; with one thread it runs inline, in order. Each call must write
    only its own block, so the result does not depend on the thread count.
    An exception from any call is raised here, after every thread is joined."""
    workers = min(usable_cores(), len(blocks))
    if workers <= 1:
        for block in blocks:
            fill(block)
        return
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fill, blocks))


# (get, set) thread-count functions of each OpenBLAS build: numpy's wheels
# carry the 64-bit-integer interface, scipy's the 32-bit one.
_SYMBOLS = [("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads", "openblas_set_num_threads")]


def _openblas_libraries(maps="/proc/self/maps") -> list:
    """(get, set) for each OpenBLAS library mapped into this process."""
    try:
        with open(maps) as fh:
            paths = {fields[5].strip() for fields in (line.split(None, 5) for line in fh) if len(fields) == 6}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, set_ in _SYMBOLS:
            if hasattr(lib, get) and hasattr(lib, set_):
                found.append((getattr(lib, get), getattr(lib, set_)))
                break
    return found


# (get, set, thread count at load) per library; each starts at one thread.
_BLAS = [(get, set_, get()) for get, set_ in _openblas_libraries()]
for _get, _set, _loaded in _BLAS:
    _set(1)


def blas_pinned() -> bool:
    """True when BLAS runs one thread outside graph work, that is, when an
    OpenBLAS library was found. Where it is False, BLAS keeps its threads,
    and forward passes should not compete with them for the cores."""
    return bool(_BLAS)


@contextmanager
def graph_blas_threads():
    """Run the block with every OpenBLAS library at its load-time thread
    count. Nests, and restores the previous counts on exit, also on an
    exception."""
    previous = [get() for get, _, _ in _BLAS]
    for _, set_, loaded in _BLAS:
        set_(loaded)
    try:
        yield
    finally:
        for (_, set_, _), count in zip(_BLAS, previous):
            set_(count)
