"""Scratch buffers that one thread reuses across the chunks and draw sets
of one chunk loop, and across later loops.

A chunk of draws passes through a word block of its keys, which every
draw set of the loop reads, a partition copy of the keys, int8 draw
rows, the words of redrawn Bernoulli rows and a float64 panel of the
evaluator's product.  Allocated afresh for every chunk, buffers of
megabytes can be mapped and unmapped by the allocator each time, and the
page faults then cost more than the work.  ``randtest._evaluate_rows``
gives each pool thread one ``Workspace`` for all the draw sets of its
call instead (every Monte Carlo set of a report), ``borrowed`` from the
idle workspaces of earlier calls.  Freed at the end of a report, a
workspace was returned to the system and faulted in again by the next
report (about 2,200 minor faults per warm desk report); kept idle, it
costs none.  The idle workspaces hold, each, the largest buffers one
thread of any earlier call asked for (about one chunk budget), one per
thread that ran at once.  A caller that passes no workspace gets a fresh
one, so a public function still returns arrays that nothing else writes
to.
"""

from __future__ import annotations

import contextlib
import math
import threading

import numpy as np


class Workspace:
    """Named buffers, each kept at the largest size asked of it."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """A C-contiguous ``shape`` view of the buffer ``name``.

        Its contents are whatever the last use left; a view taken earlier
        under the same name shares them.
        """
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


_idle: list[Workspace] = []
_idle_lock = threading.Lock()


@contextlib.contextmanager
def borrowed():
    """An idle workspace (or a new one) that no other thread holds until
    the block ends; then it is idle again."""
    with _idle_lock:
        workspace = _idle.pop() if _idle else Workspace()
    try:
        yield workspace
    finally:
        with _idle_lock:
            _idle.append(workspace)
