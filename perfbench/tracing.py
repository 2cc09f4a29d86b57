"""In-memory span tracer owned by the benchmark.

Spans are recorded around calls into ``repro``'s public functions from the
benchmark's own code: either by calling a function through :meth:`Tracer.wrap`
(the composed pipelines) or by temporarily replacing a module, class or dict
attribute with a wrapper (:meth:`Tracer.patched`), for calls that ``repro``
makes internally (service jobs, solver construction).  Nothing under ``src/``
changes; every patch is undone when its ``with`` block ends.

Each span records its name, wall start and end, the CPU time of the thread
that ran it, its parent and the operation (solve, step or job) it belongs
to.  Parents are tracked per thread, so the service's worker threads each
build their own trees.  Spans stay in memory until :meth:`Tracer.dump`
writes them out.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from unittest import mock


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    cpu: float = 0.0
    parent: int | None = None
    op: str | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current_op(self) -> str | None:
        return getattr(self._local, "op", None)

    @contextmanager
    def operation(self, op_id: str):
        """Attribute every span opened by this thread to ``op_id``."""
        prev = self.current_op
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = prev

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, time.perf_counter(),
                    parent=stack[-1] if stack else None, op=self.current_op)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        cpu0 = time.thread_time()
        try:
            yield span
        finally:
            span.cpu = time.thread_time() - cpu0
            span.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, op: str) -> None:
        """Record a span measured elsewhere (service job lifecycle stamps)."""
        with self._lock:
            self.spans.append(Span(name, start, end, op=op))

    def wrap(self, fn, name: str, on_result=None):
        """``fn`` with every call recorded as a span named ``name``.

        ``on_result(result, args)`` runs after the span closes, so the work
        it does to inspect the result is not charged to the layer.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace each ``(owner, attr, name[, on_result])`` with a wrapper
        for the duration of the block; ``owner`` is a module, class or dict."""
        with ExitStack() as stack:
            for owner, attr, name, *hook in targets:
                wrapper = self.wrap(owner[attr] if isinstance(owner, dict)
                                    else getattr(owner, attr), name, *hook)
                if isinstance(owner, dict):
                    stack.enter_context(mock.patch.dict(owner, {attr: wrapper}))
                else:
                    stack.enter_context(mock.patch.object(owner, attr, wrapper))
            yield

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover."""
        own = [s.dur for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.dur
        return own

    def total(self, name: str) -> float:
        """Wall time in spans called ``name``, not counting a span nested in
        another of the same name twice."""
        return sum(
            s.dur for s in self.spans
            if s.name == name and not self._inside(s, name)
        )

    def _inside(self, span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_total(self, prefixes: tuple[str, ...]) -> float:
        own = self.self_times()
        return sum(
            t for s, t in zip(self.spans, own) if s.name.startswith(prefixes)
        )

    def wait(self, name: str) -> float:
        """Wall minus the calling thread's CPU over spans ``name``: time spent
        waiting on rank processes rather than computing."""
        return sum(
            max(s.dur - s.cpu, 0.0) for s in self.spans
            if s.name == name and not self._inside(s, name)
        )

    def dump(self, path) -> None:
        records = [
            {"name": s.name, "start": s.start, "end": s.end, "cpu": s.cpu,
             "parent": s.parent, "op": s.op}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": records}, fh)
            fh.write("\n")
