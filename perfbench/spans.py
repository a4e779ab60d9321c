"""In-memory span recorder and the timing wrappers of the traced run.

A span is one call into a layer: its name, start, end, parent span and thread
id, plus optional counts (points handled, bytes returned).  Spans stay in a
list until the run ends.  Wrappers are installed at the module attribute that
each caller resolves, so the package itself is never edited; ``Tracer.close``
puts every original attribute back.

Worker threads of the harness pool start with an empty span stack.  Their
top-level spans take as parent the innermost span open on the thread that
installed the tracer (the ``verify_*`` call waiting on the pool), so a
driver's self time is the part of its interval that no call on any thread
covers.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import threading
import time


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    points: int = 0
    nbytes: int = 0


def _size(x) -> int:
    size = getattr(x, "size", None)
    return int(size) if size is not None else 1


def _nbytes(out) -> int:
    items = out if isinstance(out, tuple) else (out,)
    return sum(int(getattr(a, "nbytes", 0)) for a in items)


class Tracer:
    """Records spans around wrapped callables; one tracer per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, points=None, nbytes: bool = False):
        """Return ``fn`` wrapped in a span; ``points(args, out)`` counts work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            span = Span(sid, name, 0.0, 0.0, parent, threading.get_ident())
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if points:
                span.points = points(args, out)
            if nbytes:
                span.nbytes = _nbytes(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` by its traced version until ``close``."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), **kwargs))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until ``close``."""
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def close(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def points_of_result(args, out) -> int:
    return _size(out)


def points_of_first_arg(args, out) -> int:
    return _size(args[0]) if args else 0


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    """Queries over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def has_ancestor(self, span: Span, names: set) -> bool:
        pid = span.parent
        while pid is not None:
            parent = self.by_id.get(pid)
            if parent is None:
                return False
            if parent.name in names:
                return True
            pid = parent.parent
        return False

    def self_time(self, span: Span) -> float:
        """Duration minus the part of the interval that child spans cover."""
        kids = [
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.children.get(span.id, ())
        ]
        return (span.end - span.start) - union_length(k for k in kids if k[1] > k[0])

    def busy_by_thread(self, span: Span, exclude=frozenset()) -> float:
        """Child busy time summed over threads, each thread's intervals merged."""
        per_thread: dict[int, list] = {}
        for c in self.children.get(span.id, ()):
            if c.name not in exclude:
                per_thread.setdefault(c.thread, []).append((c.start, c.end))
        return sum(union_length(iv) for iv in per_thread.values())


def total(spans, attr: str = "duration") -> float:
    if attr == "duration":
        return sum(s.end - s.start for s in spans)
    return sum(getattr(s, attr) for s in spans)
