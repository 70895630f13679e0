"""Span tracing of the ivrand layers, installed from outside the package.

Each call one ivrand module makes into another is wrapped at the name the
caller resolves: a module global such as ``ivrand.randtest.draw_batch`` or a
class attribute such as ``DrawStream.word_block_raw``.  The package itself is
not modified, so a traced run executes the same code as an untraced one.

Spans are kept in memory, one stack per thread, and written to a sidecar
file at the end of the run; nothing goes into the report document.  A span's
self time is its duration minus the part of its interval that its child spans
cover (children may run on pool threads, so overlapping children are merged
before subtracting).  In a report traced with ``memory=True`` each span also
records the peak ``tracemalloc`` allocation above the level at which it
started; ``tracemalloc`` slows allocation-heavy code several-fold, so times
should come from reports traced without it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor


class Span:
    __slots__ = ("id", "name", "parent", "thread", "report",
                 "start", "end", "tags", "counts", "base_mem", "max_mem")

    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": None if self.parent is None else self.parent.id,
            "thread": self.thread,
            "report": self.report,
            "start": self.start,
            "end": self.end,
            "tags": self.tags,
            "counts": self.counts,
            "peak_bytes": (None if self.base_mem is None
                           else self.max_mem - self.base_mem),
        }


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.memory = False
        self.report = None
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open: set[Span] = set()

    # -- span lifecycle -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "adopted", None)

    def _observe_peak(self) -> int:
        """Credit the peak since the last boundary to every open span."""
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open:
            span.max_mem = max(span.max_mem, peak)
        tracemalloc.reset_peak()
        return current

    def start(self, name: str, tags: dict | None = None) -> Span:
        span = Span()
        span.name = name
        span.parent = self.current()
        span.thread = threading.get_ident()
        span.report = self.report
        span.tags = tags or {}
        span.counts = {}
        span.base_mem = span.max_mem = None
        with self._lock:
            span.id = len(self.spans)
            self.spans.append(span)
            if self.memory:
                span.base_mem = span.max_mem = self._observe_peak()
                self._open.add(span)
        self._stack().append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.base_mem is not None:
            with self._lock:
                self._observe_peak()
                self._open.discard(span)

    def begin_report(self, index: int, memory: bool) -> None:
        self.report = index
        self.memory = memory
        if memory:
            tracemalloc.start()
        self.active = True

    def end_report(self) -> None:
        self.active = False
        if self.memory:
            tracemalloc.stop()
        self.memory = False
        self.report = None

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, name: str | None = None,
             tags=None, counts=None, before=None) -> None:
        """Replace ``owner.attr`` by a traced pass-through.

        The span is named ``<layer>.<name>`` (``name`` defaults to ``attr``
        without underscores).  ``tags(args, kwargs)`` labels the span;
        ``before(args, kwargs)`` is read before the call and handed to
        ``counts(args, kwargs, result, before)``, which returns the span's
        counters.
        """
        original = getattr(owner, attr)
        span_name = f"{layer}.{name or attr.strip('_')}"

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            pre = before(args, kwargs) if before else None
            span = self.start(span_name, tags(args, kwargs) if tags else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(span)
            if counts:
                span.counts = counts(args, kwargs, result, pre)
            return result

        # updated=() because ``original`` may be a class, whose namespace
        # must not be copied onto the wrapper
        functools.update_wrapper(traced, original, updated=())
        setattr(owner, attr, traced)

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks inherit the submitter's span."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def adopted(*a, **k):
                    tracer._local.adopted = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.adopted = None

                return super().submit(adopted, *args, **kwargs)

        return TracedPool

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": [s.as_dict() for s in self.spans]}, fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.id, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = span.duration() - covered
    return out
