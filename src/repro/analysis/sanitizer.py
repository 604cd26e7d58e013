"""Runtime lock sanitizer: instrumented locks for the threaded layers.

The static ``DYG4xx`` rules (:mod:`repro.analysis.rules.concurrency`)
prove lock discipline where the AST can see it; this module catches what
it can't — *dynamic* acquisition orders threaded through callbacks,
futures, and worker loops.  It is a tsan-lite in the spirit of Go's
``-race`` wiring: opt-in instrumentation that records per-thread lock
acquisition stacks and reports two bug classes as they happen:

* **order inversions** — thread A acquires ``x`` then ``y`` while thread
  B (ever) acquires ``y`` then ``x``.  Detected on a *name-level*
  acquisition graph: every ``outer → inner`` acquisition adds an edge,
  and an edge that closes a cycle is reported at the site that closed
  it.  A lock may not nest under its own name at all: no code path
  holds two same-name locks at once.
* **blocking calls under a lock** — instrumented blocking sites
  (:func:`check_blocking` markers at pool results, thread joins,
  load-generator sleeps) report when the calling thread holds *any*
  sanitized lock.

Reports are appended to an in-process list (:func:`reports`), counted in
the metrics registry (``sanitizer.order_inversions`` /
``sanitizer.blocking_calls``), and emitted to an active obs journal as
``sanitizer.order_inversion`` / ``sanitizer.blocking_call`` events —
``dygroups sanitize report <journal.jsonl>`` summarizes them.

The switch follows :mod:`repro.analysis.contracts` exactly: off by
default, enabled by ``REPRO_SANITIZE=1``, the ``dygroups --sanitize``
flag, or :func:`enable_sanitizer` / :func:`sanitize_scope`.  The off
path is a *construction-time* no-op: :func:`lock` / :func:`rlock` return
bare ``threading.Lock`` / ``threading.RLock`` objects — not wrappers —
so disabled code pays nothing per acquisition, and a sanitize-off run is
bit-identical to an uninstrumented one (the test suite pins this).
Enabling the sanitizer only instruments locks constructed *afterwards*.
"""

from __future__ import annotations

import os
import sys
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "SanitizedLock",
    "check_blocking",
    "disable_sanitizer",
    "enable_sanitizer",
    "lock",
    "reports",
    "reset",
    "rlock",
    "sanitize_scope",
    "sanitizer_enabled",
    "summarize_reports",
]

#: Environment variable that switches the sanitizer on at import time.
ENV_VAR = "REPRO_SANITIZE"

#: Journal event names the sanitizer emits (registered in
#: :data:`repro.obs.journal.EVENTS`).
EVENT_ORDER_INVERSION = "sanitizer.order_inversion"
EVENT_BLOCKING_CALL = "sanitizer.blocking_call"


def _env_enabled() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() in ("1", "true", "yes", "on")


_enabled: bool = _env_enabled()


def sanitizer_enabled() -> bool:
    """Whether the lock sanitizer is active (the hot-path accessor)."""
    return _enabled


def enable_sanitizer() -> None:
    """Switch the sanitizer on; instruments locks constructed afterwards."""
    global _enabled
    _enabled = True


def disable_sanitizer() -> None:
    """Switch the sanitizer off (already-wrapped locks stay wrapped)."""
    global _enabled
    _enabled = False


@contextmanager
def sanitize_scope(on: bool = True) -> Iterator[None]:
    """Temporarily force the sanitizer on (or off); restores prior state."""
    global _enabled
    previous = _enabled
    _enabled = on
    try:
        yield
    finally:
        _enabled = previous


# -- global detector state -------------------------------------------------

#: Raw (uninstrumented) lock guarding the detector's shared tables.
_state_lock = threading.Lock()

#: name-level acquisition graph: ``(outer, inner) → first-seen site``.
_edges: dict[tuple[str, str], str] = {}

#: every report, in emission order.
_reports: list[dict[str, Any]] = []

#: ``(kind, dedup key)`` pairs already reported (one report per site/edge).
_seen: set[tuple[str, str]] = set()

#: per-thread stack of currently held :class:`SanitizedLock` entries.
_held = threading.local()


def _held_stack() -> "list[SanitizedLock]":
    stack = getattr(_held, "stack", None)
    if stack is None:
        stack = []
        _held.stack = stack
    return stack


def _call_site() -> str:
    """``path:line`` of the nearest caller outside this module."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_code.co_filename}:{frame.f_lineno}"


def _report(kind: str, event: str, message: str, *, dedup: str, **fields: Any) -> None:
    """Record one finding: process list + metrics counters + journal."""
    with _state_lock:
        if (kind, dedup) in _seen:
            return
        _seen.add((kind, dedup))
        record = {
            "kind": kind,
            "message": message,
            "thread": threading.current_thread().name,
            **fields,
        }
        _reports.append(record)
    # Metrics and journal emission run outside the detector lock — the
    # journal takes its own lock and must not nest under this one.
    from repro.obs import runtime as _obs

    registry = _obs.metrics_registry()
    registry.counter(f"sanitizer.{kind}s").inc()
    registry.counter("sanitizer.reports").inc()
    state = _obs.state()
    if state is not None and state.journal is not None:
        state.journal.emit(event, **record)


def _check_order(acquiring: "SanitizedLock", site: str) -> None:
    """Record acquisition edges for ``acquiring`` and flag inversions."""
    stack = _held_stack()
    if not stack:
        return
    if any(held.name == acquiring.name for held in stack):
        _report(
            "order_inversion",
            EVENT_ORDER_INVERSION,
            f"same-name lock {acquiring.name!r} acquired while already held at {site}",
            dedup=f"{acquiring.name}@{site}",
            lock=acquiring.name,
            site=site,
        )
    with _state_lock:
        for held in stack:
            if held.name == acquiring.name:
                continue
            edge = (held.name, acquiring.name)
            if edge not in _edges:
                _edges[edge] = site
            if _reaches(acquiring.name, held.name):
                cycle_site = _edges.get((acquiring.name, held.name), "<elsewhere>")
                message = (
                    f"lock order inversion: {held.name!r} → {acquiring.name!r} "
                    f"at {site} completes a cycle ({acquiring.name!r} → "
                    f"{held.name!r} was first seen at {cycle_site})"
                )
                dedup = f"{held.name}->{acquiring.name}"
                break
        else:
            return
    _report(
        "order_inversion",
        EVENT_ORDER_INVERSION,
        message,
        dedup=dedup,
        lock=acquiring.name,
        site=site,
    )


def _reaches(source: str, target: str) -> bool:
    """Whether ``target`` is reachable from ``source`` in the edge graph.

    Caller holds :data:`_state_lock`.
    """
    frontier = [source]
    visited = {source}
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for outer, inner in _edges:
            if outer == node and inner not in visited:
                visited.add(inner)
                frontier.append(inner)
    return False


class SanitizedLock:
    """A ``Lock``/``RLock`` wrapper that feeds the order/blocking detector.

    Supports the subset of the lock protocol the codebase uses:
    ``acquire``/``release``, the context-manager form, and ``locked``
    (where the inner lock provides it).  Reentrant acquisition of one
    instance (an ``RLock``) is tracked by depth and never reported.
    """

    __slots__ = ("_inner", "name", "reentrant")

    def __init__(self, inner: Any, name: str, *, reentrant: bool = False) -> None:
        self._inner = inner
        self.name = name
        self.reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        site = _call_site()
        stack = _held_stack()
        reentry = self.reentrant and any(held is self for held in stack)
        if not reentry:
            # Check order *before* blocking: a true deadlock still gets
            # its report even if this acquire never returns.
            _check_order(self, site)
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            stack.append(self)
        return acquired

    def release(self) -> None:
        stack = _held_stack()
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break
        self._inner.release()

    def locked(self) -> bool:
        """Whether the inner lock is held (inner lock permitting)."""
        return bool(self._inner.locked())

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"SanitizedLock(name={self.name!r})"


def lock(name: str) -> Any:
    """A ``threading.Lock``, instrumented when the sanitizer is enabled.

    Args:
        name: the detector's node label; every lock guarding the same
            shared structure should share one name.

    Returns:
        A bare ``threading.Lock`` when the sanitizer is off (zero
        overhead, bit-identical behavior), else a :class:`SanitizedLock`.
    """
    if not _enabled:
        return threading.Lock()
    return SanitizedLock(threading.Lock(), name)


def rlock(name: str) -> Any:
    """A ``threading.RLock``, instrumented when the sanitizer is enabled.

    Reentrant acquisition of the returned lock is tracked by depth and
    never reported (see :func:`lock` for ``name``).
    """
    if not _enabled:
        return threading.RLock()
    return SanitizedLock(threading.RLock(), name, reentrant=True)


def check_blocking(description: str) -> None:
    """Marker placed at a blocking call site (``queue.get``, sleeps, ...).

    Reports when the calling thread holds any sanitized lock — blocking
    while holding a lock stalls every thread contending on it.  A no-op
    (one module-global read) when the sanitizer is off.
    """
    if not _enabled:
        return
    stack = _held_stack()
    if not stack:
        return
    site = _call_site()
    held = ", ".join(entry.name for entry in stack)
    _report(
        "blocking_call",
        EVENT_BLOCKING_CALL,
        f"blocking call {description!r} at {site} while holding {held}",
        dedup=f"{description}@{site}",
        blocking=description,
        site=site,
        held=[entry.name for entry in stack],
    )


def reports() -> tuple[dict[str, Any], ...]:
    """Every report recorded since the last :func:`reset`."""
    with _state_lock:
        return tuple(dict(record) for record in _reports)


def reset() -> None:
    """Drop the acquisition graph, the reports, and the dedup memory.

    Per-thread held stacks are untouched — they empty naturally as the
    locks are released.
    """
    with _state_lock:
        _edges.clear()
        _reports.clear()
        _seen.clear()


def summarize_reports(records: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Summarize ``sanitizer.*`` journal records (or raw reports).

    Accepts journal records (with an ``event`` field) and in-process
    reports (with a ``kind`` field) alike.

    Returns:
        ``{"total": n, "by_kind": {...}, "reports": [...]}`` with one
        entry per sanitizer record, in input order.
    """
    by_kind: dict[str, int] = {}
    kept: list[dict[str, Any]] = []
    for record in records:
        event = str(record.get("event", ""))
        if event and not event.startswith("sanitizer."):
            continue
        kind = str(record.get("kind") or event.partition(".")[2] or "unknown")
        by_kind[kind] = by_kind.get(kind, 0) + 1
        kept.append(
            {
                "kind": kind,
                "message": str(record.get("message", "")),
                "thread": record.get("thread"),
            }
        )
    return {"total": len(kept), "by_kind": dict(sorted(by_kind.items())), "reports": kept}
