"""Out-of-process-style tracing for the benchmark: spans from wrappers.

The program under test is not edited.  :class:`Tracer` replaces public
functions and methods of each layer with wrappers that record a span
(name, start, end, parent, operation id, thread) around the original
call, then restores the originals.  Spans stay in memory until
:meth:`Tracer.dump` writes them out as JSON lines.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Every span nests inside its parent on one thread, so the
self times of all spans of one operation sum to the duration of the
operation's root span; :func:`attribution_check` compares that sum
against the wall time the benchmark measured around the operation.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple


class Span:
    """One traced call.  ``counts`` holds calls made inside this span
    that were counted rather than traced (see :meth:`Tracer.wrap`)."""

    __slots__ = ("sid", "name", "parent", "op", "thread", "start", "end",
                 "counts", "absorb")

    def __init__(self, sid: int, name: str, parent: Optional["Span"],
                 op: int, absorb: bool) -> None:
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.thread = threading.get_ident()
        self.start = 0
        self.end = 0
        self.counts: Dict[str, int] = {}
        self.absorb = absorb

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "parent": self.parent.sid if self.parent is not None else None,
            "op": self.op,
            "thread": self.thread,
            "start_ns": self.start,
            "end_ns": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Installs span-recording wrappers; :meth:`uninstall` undoes them."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: While False every wrapper calls straight through.
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_sid = 0
        self._next_op = 0
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ids(self, new_op: bool) -> Tuple[int, int]:
        with self._lock:
            self._next_sid += 1
            if new_op:
                self._next_op += 1
            return self._next_sid, self._next_op

    def wrap(
        self,
        owner,
        attr: str,
        name: str,
        absorb: bool = False,
        under: Optional[Dict[str, Optional[str]]] = None,
        within: Optional[Iterable[str]] = None,
        count_only: bool = False,
        probe: Optional[Callable[[tuple], Callable[[], Dict[str, int]]]] = None,
    ) -> None:
        """Trace ``owner.attr`` (a class or module attribute) as ``name``.

        ``absorb`` makes the span opaque: wrapped calls made inside it
        are counted in its ``counts`` instead of becoming child spans,
        so their time stays in this span's self time.  ``under`` renames
        the span when its parent has a given name (``None`` = count the
        call on the parent instead of tracing it).  ``within`` traces
        the call only inside a parent of one of those names.
        ``count_only`` never opens a span, it counts the call on the
        innermost span.  ``probe(args)`` runs before the call and returns
        a function whose dict of counts is added to the span after it.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        original = raw.__func__ if kind is not None else raw
        within = frozenset(within) if within is not None else None
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_name: Optional[str] = name
            if parent is not None:
                if under is not None and parent.name in under:
                    span_name = under[parent.name]
                if parent.absorb or count_only or span_name is None:
                    parent.counts[name] = parent.counts.get(name, 0) + 1
                    return original(*args, **kwargs)
            elif count_only or within is not None:
                return original(*args, **kwargs)
            if within is not None and parent.name not in within:
                parent.counts[name] = parent.counts.get(name, 0) + 1
                return original(*args, **kwargs)
            finish = probe(args) if probe is not None else None
            sid, op = tracer._ids(new_op=parent is None)
            span = Span(sid, span_name, parent,
                        parent.op if parent is not None else op, absorb)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if finish is not None:
                    for key, n in finish().items():
                        span.counts[key] = span.counts.get(key, 0) + n
                with tracer._lock:
                    tracer.spans.append(span)

        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._undo.append((owner, attr, raw))

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks).
        Only call it between operations, never inside a traced call."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path: str) -> int:
        """Write every finished span as one JSON line; returns the count."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_json()) + "\n")
        return len(self.spans)


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """``span id -> self time (ns)``: duration minus child durations."""
    spans = list(spans)
    child_ns: Dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent.sid] = (
                child_ns.get(s.parent.sid, 0) + s.duration_ns
            )
    return {s.sid: s.duration_ns - child_ns.get(s.sid, 0) for s in spans}


def layer_ms(spans: Iterable[Span], self_ns: Dict[int, int]) -> Dict[str, float]:
    """Total self time per span name, in milliseconds."""
    out: Dict[str, float] = {}
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + self_ns[s.sid] / 1e6
    return out


def inclusive_ms(spans: Iterable[Span], name: str) -> Tuple[float, int]:
    """Total duration (ms) and number of the spans called ``name``."""
    picked = [s for s in spans if s.name == name]
    return sum(s.duration_ns for s in picked) / 1e6, len(picked)


def subtree_counts(spans: Iterable[Span], root_name: str,
                   counted: str) -> List[int]:
    """For each span called ``root_name``: calls of ``counted`` made
    anywhere inside it (counted on it or on any descendant)."""
    spans = list(spans)
    totals: Dict[int, int] = {
        s.sid: 0 for s in spans if s.name == root_name
    }
    for s in spans:
        n = s.counts.get(counted, 0)
        if not n:
            continue
        node: Optional[Span] = s
        while node is not None:
            if node.sid in totals:
                totals[node.sid] += n
                break
            node = node.parent
    return list(totals.values())


def attribution_check(spans: Iterable[Span], self_ns: Dict[int, int],
                      wall_s: float) -> Tuple[float, float]:
    """``(attributed share, negative self-time share)`` of ``wall_s``.

    The attributed share is the sum of every span's self time over the
    wall time the benchmark measured around the traced operations; it
    is 1 when the spans tile the operations exactly.  A negative self
    time would mean overlapping children (a tracing bug), so their sum
    is reported too.
    """
    spans = list(spans)
    total = sum(self_ns[s.sid] for s in spans) / 1e9
    negative = -sum(min(0, self_ns[s.sid]) for s in spans) / 1e9
    wall_s = max(wall_s, 1e-12)
    return total / wall_s, negative / wall_s
