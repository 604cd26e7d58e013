"""Spans recorded from outside the program, and the self-time arithmetic.

A traced benchmark run replaces public functions of ``repro`` modules with
wrappers made by :meth:`Recorder.wrap` (the targets live in
:mod:`perfbench.layers`).  Each call records one :class:`Span`: its layer
name, start and end on ``time.perf_counter_ns`` (CLOCK_MONOTONIC, one
timeline for every process on the host), the span open on the same thread
when it started, and its process and thread.  Spans stay in memory and are
written out when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children may sit on other threads or processes,
overlap one another or outlive their parent; only the covered part of the
parent's own interval is subtracted.  When siblings do not overlap (calls
on one thread), the self intervals of a tree partition its root's interval.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "Recorder",
    "Span",
    "dump_spans",
    "intersect",
    "length",
    "load_spans",
    "self_intervals",
    "self_times",
    "subtract",
    "union",
]

Key = tuple[int, int]
Interval = tuple[int, int]


class Span(NamedTuple):
    """One timed call: ``key`` is ``(pid, sequence number)``."""

    key: Key
    parent: "Key | None"
    name: str
    start: int
    end: int
    tid: int
    failed: bool = False
    tag: "str | None" = None

    @property
    def pid(self) -> int:
        return self.key[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


# -- interval arithmetic (half-open [start, end) in nanoseconds) -------------


def union(intervals: Iterable[Interval]) -> list[Interval]:
    """Sorted, disjoint cover of ``intervals`` (empty ones dropped)."""
    merged: list[Interval] = []
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def length(intervals: Iterable[Interval]) -> int:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    return sum(end - start for start, end in union(intervals))


def subtract(base: Interval, cut: Iterable[Interval]) -> list[Interval]:
    """The parts of ``base`` that no interval of ``cut`` covers."""
    start, end = base
    parts: list[Interval] = []
    cursor = start
    for cut_start, cut_end in union(cut):
        if cut_end <= cursor:
            continue
        if cut_start >= end:
            break
        if cut_start > cursor:
            parts.append((cursor, cut_start))
        cursor = max(cursor, cut_end)
    if cursor < end:
        parts.append((cursor, end))
    return parts


def intersect(a: Iterable[Interval], b: Iterable[Interval]) -> list[Interval]:
    """The intervals covered by both ``a`` and ``b``."""
    left, right = union(a), union(b)
    out: list[Interval] = []
    i = j = 0
    while i < len(left) and j < len(right):
        start = max(left[i][0], right[j][0])
        end = min(left[i][1], right[j][1])
        if start < end:
            out.append((start, end))
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return out


def self_intervals(spans: Sequence[Span]) -> dict[Key, list[Interval]]:
    """Each span's interval minus the union of its children's intervals."""
    keys = {span.key for span in spans}
    children: dict[Key, list[Interval]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.parent in keys:
            children[span.parent].append((span.start, span.end))
    return {
        span.key: subtract((span.start, span.end), children.get(span.key, ()))
        for span in spans
    }


def self_times(spans: Sequence[Span]) -> dict[Key, int]:
    """Self time in nanoseconds of every span, keyed by span key."""
    return {key: length(parts) for key, parts in self_intervals(spans).items()}


# -- recording ----------------------------------------------------------------


class Recorder:
    """Collects the spans of one process.

    Wrappers made by :meth:`wrap` push onto a per-thread stack, so a span's
    parent is whatever wrapped call is open on the same thread.  A forked
    child calls :meth:`adopt_fork` before recording: it drops the spans and
    open stacks inherited from the parent process.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._pid = os.getpid()
        self._seq = itertools.count(1)
        self._local = threading.local()

    def adopt_fork(self) -> None:
        """Start afresh when running in a process forked after construction."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self.spans = []
            self._seq = itertools.count(1)
            self._local = threading.local()

    def _stack(self) -> list[tuple[Key, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        *,
        tag: "Callable[[tuple, dict], str | None] | str | None" = None,
        rename: "Callable[[Sequence[str]], str] | None" = None,
    ) -> Callable[..., Any]:
        """A drop-in replacement for ``fn`` that records one span per call.

        ``tag`` labels the span (a constant or a function of the call's
        arguments); ``rename`` picks the layer name from the names of the
        spans open on the calling thread.
        """
        recorder = self
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            layer = name if rename is None else rename([entry[1] for entry in stack])
            key = (recorder._pid, next(recorder._seq))
            parent = stack[-1][0] if stack else None
            label = tag(args, kwargs) if callable(tag) else tag
            stack.append((key, layer))
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                recorder.spans.append(
                    Span(key, parent, layer, start, end, get_ident(), failed, label)
                )

        return traced

    def span(self, name: str, *, tag: "str | None" = None) -> "_OpenSpan":
        """Context manager recording one span around a block on this thread."""
        return _OpenSpan(self, name, tag)

    def add(self, name: str, start: int, end: int, *, tag: "str | None" = None) -> None:
        """Record an interval timed by the caller as a root span."""
        key = (self._pid, next(self._seq))
        self.spans.append(Span(key, None, name, start, end, threading.get_ident(), False, tag))

    def take(self, mark: int = 0) -> list[Span]:
        """Remove and return the spans recorded since ``len(spans) == mark``."""
        taken = self.spans[mark:]
        del self.spans[mark:]
        return taken


class _OpenSpan:
    """The block form of a wrapped call (see :meth:`Recorder.span`)."""

    __slots__ = ("_recorder", "_name", "_tag", "_key", "_parent", "_start")

    def __init__(self, recorder: Recorder, name: str, tag: "str | None") -> None:
        self._recorder = recorder
        self._name = name
        self._tag = tag

    def __enter__(self) -> "_OpenSpan":
        recorder = self._recorder
        stack = recorder._stack()
        self._key = (recorder._pid, next(recorder._seq))
        self._parent = stack[-1][0] if stack else None
        stack.append((self._key, self._name))
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        end = time.perf_counter_ns()
        recorder = self._recorder
        recorder._stack().pop()
        recorder.spans.append(
            Span(
                self._key, self._parent, self._name, self._start, end,
                threading.get_ident(), exc_type is not None, self._tag,
            )
        )


def dump_spans(spans: Iterable[Span]) -> list[list[Any]]:
    """JSON-able rows, the inverse of :func:`load_spans`."""
    return [
        [
            span.key[0],
            span.key[1],
            None if span.parent is None else span.parent[0],
            None if span.parent is None else span.parent[1],
            span.name,
            span.start,
            span.end,
            span.tid,
            span.failed,
            span.tag,
        ]
        for span in spans
    ]


def load_spans(rows: Iterable[Sequence[Any]]) -> list[Span]:
    """Spans from rows written by :func:`dump_spans`."""
    spans = []
    for pid, seq, ppid, pseq, name, start, end, tid, failed, tag in rows:
        parent = None if ppid is None else (int(ppid), int(pseq))
        spans.append(
            Span((int(pid), int(seq)), parent, name, int(start), int(end), int(tid), bool(failed), tag)
        )
    return spans
