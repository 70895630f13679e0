"""One OpenBLAS thread while ivrand computes.

ivrand's thread pool (``TestConfig.threads``) is its only parallelism.
Left alone, OpenBLAS gives every matrix product as many threads as the
host has cores, so each pool worker's product starts threads of its own
and the cores are oversubscribed.  OpenBLAS also splits a product's sums
by thread, so its rounding, and with it a report's bits, would depend on
the host's core count.  The public entry points that compute therefore
run inside ``one_blas_thread()``.

The thread count is a property of the loaded library, shared by every
thread of the process, so the state kept here is module-level too.
Without an OpenBLAS among the mapped objects (another BLAS, or a
platform without ``/proc/self/maps``) the context does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

# (set, get) pairs, tried in order: numpy >= 2 wheels (scipy-openblas with
# 64-bit integers), numpy 1.x wheels (64-bit integers), then plain builds.
# openblas_set_num_threads_local is not used: in the pthreads build it
# changes the count for the whole process, not for the calling thread.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: list[tuple] = []


@functools.cache
def _openblas() -> tuple[tuple, ...]:
    """(set, get) functions of every OpenBLAS mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in f[5].rsplit("/", 1)[-1].lower()})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_, get = getattr(lib, set_name), getattr(lib, get_name)
                set_.argtypes, set_.restype = [ctypes.c_int], None
                get.argtypes, get.restype = [], ctypes.c_int
                found.append((set_, get))
                break
    return tuple(found)


def blas_thread_counts() -> list[int]:
    """Current thread count of each OpenBLAS found; empty when there is none."""
    return [get() for _, get in _openblas()]


@contextlib.contextmanager
def one_blas_thread():
    """Run the enclosed block, or the decorated function, on one OpenBLAS thread.

    Reentrant and shared by threads: the outermost entry saves each
    library's count and sets it to 1, and the outermost exit restores it.
    """
    global _depth
    with _lock:
        if _depth == 0:
            _saved[:] = [(set_, get()) for set_, get in _openblas()]
            for set_, _ in _saved:
                set_(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                for set_, count in _saved:
                    set_(count)
