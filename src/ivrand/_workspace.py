"""Scratch buffers that one thread reuses across the chunks of one draw set.

A chunk of draws passes through a word block, a partition copy of its
keys, int8 draw rows and a float64 panel of the evaluator's product.
Allocated afresh for every chunk, buffers of megabytes can be mapped and
unmapped by the allocator each time, and the page faults then cost more
than the work.  ``randtest._evaluate_rows`` gives each pool thread one
``Workspace`` for the draw set instead; it lives as long as that call.
A caller that passes no workspace gets a fresh one, so a public function
still returns arrays that nothing else writes to.
"""

from __future__ import annotations

import math

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
