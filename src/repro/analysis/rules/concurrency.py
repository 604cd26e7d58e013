"""DYG4xx — concurrency rules.

The serve and scenario layers are threaded: session stores, grouping
memos, matchmakers, and load generators all guard shared
state with locks, and the correctness of that guarding used to rest on
convention alone.  These rules prove the conventions at lint time, the
same way ``DYG1xx`` proves seeded-RNG threading:

* ``DYG401`` — unguarded shared-state mutation: an attribute write on
  ``self`` outside a ``with self._lock`` block, in any class that owns a
  ``threading.Lock``/``RLock`` (or a
  :mod:`repro.analysis.sanitizer` factory lock).  ``__init__`` /
  ``__post_init__`` are exempt (no concurrent access before the object
  escapes), as are methods ending in ``_locked`` (the repo's
  caller-holds-the-lock convention) and methods that manage the lock
  manually through ``.acquire()`` (sorted multi-lock acquisition);
* ``DYG402`` — lock-ordering cycles: nested ``with`` blocks over
  lock-named objects build a per-module acquisition graph; an edge that
  closes a cycle is a deadlock shape.  Sorted acquisition (same-name
  locks acquired in ascending key order via ``.acquire()``) is the
  sanctioned idiom and invisible to this rule by construction — the
  runtime sanitizer checks its rank discipline instead;
* ``DYG403`` — blocking call while holding a lock: ``queue.get``,
  ``subprocess``, ``time.sleep``, socket/HTTP waits, ``future.result``
  inside a lock-guarded ``with`` body stall every contending thread;
* ``DYG404`` — process spawn while holding a lock: ``os.fork``,
  ``multiprocessing.Process``/``Pool``/``get_context``, a
  ``ProcessPoolExecutor``, or the warm worker pool
  (:class:`repro.experiments.parallel.WorkerPool` / ``shared_pool`` —
  which fork at construction/first use) created in a lock-guarded
  region — a forked child inherits held locks mid-state and deadlocks
  on first contact.

What the AST cannot see — acquisition orders threaded through
callbacks, futures, and worker loops — is covered at test time by the
runtime sanitizer (:mod:`repro.analysis.sanitizer`).
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.base import FileContext, Finding, ImportMap, Rule

__all__ = [
    "BlockingCallUnderLockRule",
    "LockOrderingCycleRule",
    "ProcessSpawnUnderLockRule",
    "UnguardedSharedStateRule",
]

#: ``threading`` constructors that create a lock.
_LOCK_CTORS = frozenset({"Lock", "RLock"})

#: :mod:`repro.analysis.sanitizer` factory functions that create a lock.
_SANITIZER_FACTORIES = frozenset({"lock", "rlock"})

#: Name fragments marking an object as a lock for the ``with``-walkers.
_LOCKISH_FRAGMENTS = ("lock", "mutex")

#: Blocking module-level callables per module (DYG403).
_BLOCKING_MODULE_CALLS = {
    "time": frozenset({"sleep"}),
    "subprocess": frozenset({"run", "call", "check_call", "check_output", "Popen"}),
    "socket": frozenset({"create_connection"}),
    "urllib.request": frozenset({"urlopen"}),
}

#: ``multiprocessing`` spawn entry points (DYG404).
_MP_SPAWNS = frozenset({"Process", "Pool", "get_context"})

#: Warm-worker-pool entry points (DYG404): the pool forks its workers at
#: construction / first ensure, so building or fetching one under a lock
#: is exactly an under-lock fork.
_POOL_SPAWNS = frozenset({"WorkerPool", "shared_pool"})

#: Module that owns the warm worker pool.
_POOL_MODULE = "repro.experiments.parallel"


def _lockish(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


def _lock_label(expr: ast.expr) -> "str | None":
    """The lock label of a ``with`` context expression, if it names a lock."""
    if isinstance(expr, ast.Name) and _lockish(expr.id):
        return expr.id
    if isinstance(expr, ast.Attribute) and _lockish(expr.attr):
        return ast.unparse(expr)
    return None


def _is_lock_ctor(call: ast.Call, imports: ImportMap) -> bool:
    """Whether ``call`` constructs a lock (threading or sanitizer factory)."""
    func = call.func
    threading_names = imports.module_aliases("threading")
    sanitizer_names = imports.module_aliases("repro.analysis.sanitizer")
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id in threading_names and func.attr in _LOCK_CTORS:
            return True
        if func.value.id in sanitizer_names and func.attr in _SANITIZER_FACTORIES:
            return True
    if isinstance(func, ast.Name):
        for member in _LOCK_CTORS:
            if func.id in imports.member_aliases("threading", member):
                return True
        for member in _SANITIZER_FACTORIES:
            if func.id in imports.member_aliases("repro.analysis.sanitizer", member):
                return True
    return False


def _self_attr(expr: ast.expr) -> "str | None":
    """``X`` when ``expr`` is exactly ``self.X``."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


class UnguardedSharedStateRule(Rule):
    """DYG401: guard ``self`` attribute writes in lock-owning classes."""

    code = "DYG401"
    name = "unguarded-shared-state"
    summary = "attribute write on self outside `with self._lock` in a lock-owning class"
    fix = "wrap the write in `with self._lock:` (or move it into __init__ / a *_locked helper)"

    #: Methods where unguarded writes are safe by construction.
    _EXEMPT_METHODS = frozenset({"__init__", "__post_init__"})

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap.of(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            lock_attrs = self._owned_locks(node, imports)
            if not lock_attrs:
                continue
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name in self._EXEMPT_METHODS or method.name.endswith("_locked"):
                    continue
                if self._manages_lock_manually(method, lock_attrs):
                    continue
                yield from self._scan_body(method.body, False, lock_attrs, node.name)

    @staticmethod
    def _owned_locks(cls: ast.ClassDef, imports: ImportMap) -> frozenset[str]:
        """Attribute names bound to a lock constructor anywhere in the class."""
        owned: set[str] = set()
        for node in ast.walk(cls):
            if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
                continue
            if not _is_lock_ctor(node.value, imports):
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr is not None:
                    owned.add(attr)
        return frozenset(owned)

    @staticmethod
    def _manages_lock_manually(
        method: "ast.FunctionDef | ast.AsyncFunctionDef", lock_attrs: frozenset[str]
    ) -> bool:
        """Whether the method calls ``self.<lock>.acquire()`` explicitly.

        Manual acquire/release (sorted multi-lock acquisition) cannot be
        region-tracked statically; the runtime sanitizer owns that case.
        """
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("acquire", "release")
                and _self_attr(node.func.value) in lock_attrs
            ):
                return True
        return False

    @classmethod
    def _scan_body(
        cls,
        body: "list[ast.stmt]",
        guarded: bool,
        lock_attrs: frozenset[str],
        class_name: str,
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue  # nested defs run later, possibly under a caller's lock
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                inner = guarded or any(
                    _self_attr(item.context_expr) in lock_attrs for item in stmt.items
                )
                yield from cls._scan_body(stmt.body, inner, lock_attrs, class_name)
                continue
            if not guarded:
                yield from cls._flag_writes(stmt, lock_attrs, class_name)
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    yield from cls._scan_body(sub, guarded, lock_attrs, class_name)
            for handler in getattr(stmt, "handlers", ()):
                yield from cls._scan_body(handler.body, guarded, lock_attrs, class_name)

    @staticmethod
    def _flag_writes(
        stmt: ast.stmt, lock_attrs: frozenset[str], class_name: str
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Assign):
            targets: "list[ast.expr]" = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            return
        for target in targets:
            attr = _self_attr(target)
            if attr is not None and attr not in lock_attrs:
                yield Finding.at(
                    target,
                    f"{class_name} owns a lock but writes self.{attr} outside "
                    "a `with self.<lock>` block; guard the mutation (or use a "
                    "`*_locked` method whose caller holds the lock)",
                )


class _LockRegionWalker:
    """Shared scope walker for DYG402/403/404.

    Walks one execution scope (the module body or one function body)
    tracking the lexical stack of held lock labels.  Nested function
    definitions start fresh scopes — their bodies execute later, not at
    the definition point.
    """

    def __init__(self) -> None:
        #: every ``outer → inner`` acquisition with its site node.
        self.edges: list[tuple[str, str, ast.AST]] = []
        #: every call made while at least one lock label is held.
        self.guarded_calls: list[tuple[ast.Call, tuple[str, ...]]] = []

    def walk_module(self, tree: ast.Module) -> None:
        scopes: "list[list[ast.stmt]]" = [tree.body]
        collected = 0
        while collected < len(scopes):
            body = scopes[collected]
            collected += 1
            self._walk_body(body, [], scopes)

    def _walk_body(
        self, body: "list[ast.stmt]", stack: "list[str]", scopes: "list[list[ast.stmt]]"
    ) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append(stmt.body)
                continue
            if isinstance(stmt, ast.ClassDef):
                scopes.append(stmt.body)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                labels = []
                for item in stmt.items:
                    label = _lock_label(item.context_expr)
                    if label is not None:
                        for outer in stack + labels:
                            if outer != label:
                                self.edges.append((outer, label, stmt))
                        labels.append(label)
                if stack or labels:
                    self._collect_calls(stmt.items, tuple(stack + labels))
                self._walk_body(stmt.body, stack + labels, scopes)
                continue
            if stack:
                self._collect_calls([stmt], tuple(stack))
            for field in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, field, None)
                if sub:
                    self._walk_body(sub, stack, scopes)
            for handler in getattr(stmt, "handlers", ()):
                self._walk_body(handler.body, stack, scopes)

    def _collect_calls(self, roots: Iterable[ast.AST], held: tuple[str, ...]) -> None:
        for root in roots:
            for node in ast.walk(root):  # type: ignore[arg-type]
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(node, ast.Call):
                    self.guarded_calls.append((node, held))


def _walker(ctx: FileContext) -> _LockRegionWalker:
    walker = _LockRegionWalker()
    walker.walk_module(ctx.tree)
    return walker


class LockOrderingCycleRule(Rule):
    """DYG402: no cycles in the per-module lock-acquisition graph."""

    code = "DYG402"
    name = "lock-ordering-cycle"
    summary = "nested `with` lock acquisitions form an ordering cycle (deadlock shape)"
    fix = "acquire locks in one global order everywhere (sort them by a total-order key)"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        walker = _walker(ctx)
        if not walker.edges:
            return
        edge_set = {(outer, inner) for outer, inner, _ in walker.edges}
        for outer, inner, node in walker.edges:
            if _reaches(inner, outer, edge_set):
                yield Finding.at(
                    node,
                    f"acquiring {inner!r} while holding {outer!r} completes a "
                    "lock-ordering cycle; pick one global acquisition order "
                    "(the runtime sanitizer checks the dynamic case)",
                )


def _reaches(source: str, target: str, edges: "set[tuple[str, str]]") -> bool:
    frontier = [source]
    visited = {source}
    while frontier:
        node = frontier.pop()
        if node == target:
            return True
        for outer, inner in edges:
            if outer == node and inner not in visited:
                visited.add(inner)
                frontier.append(inner)
    return False


class BlockingCallUnderLockRule(Rule):
    """DYG403: no blocking calls inside a lock-guarded ``with`` body."""

    code = "DYG403"
    name = "blocking-call-under-lock"
    summary = "blocking call (queue.get/sleep/subprocess/socket) while holding a lock"
    fix = "move the blocking call outside the `with` block; hold locks only around state changes"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap.of(ctx.tree)
        for call, held in _walker(ctx).guarded_calls:
            description = _blocking_description(call, imports)
            if description is not None:
                yield Finding.at(
                    call,
                    f"{description} while holding {held[-1]!r} stalls every "
                    "thread contending on it; release the lock first",
                )


def _blocking_description(call: ast.Call, imports: ImportMap) -> "str | None":
    """A human-readable label when ``call`` is a known blocking call."""
    func = call.func
    # Module-resolved calls: time.sleep, subprocess.run, socket dials ...
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        for module, members in _BLOCKING_MODULE_CALLS.items():
            if func.value.id in imports.module_aliases(module) and func.attr in members:
                return f"{module}.{func.attr}()"
    if isinstance(func, ast.Name):
        for module, members in _BLOCKING_MODULE_CALLS.items():
            for member in members:
                if func.id in imports.member_aliases(module, member):
                    return f"{func.id}() ({module}.{member})"
    # Receiver-name heuristics: queue.get, future.result, thread joins,
    # socket reads.  The receiver's spelled-out name carries the intent.
    if isinstance(func, ast.Attribute):
        receiver = ast.unparse(func.value).lower()
        if func.attr == "get" and "queue" in receiver:
            return f"{ast.unparse(func.value)}.get()"
        if func.attr == "result" and ("future" in receiver or "fut" in receiver):
            return f"{ast.unparse(func.value)}.result()"
        if func.attr in ("join", "wait") and any(
            fragment in receiver
            for fragment in ("thread", "worker", "proc", "future", "event")
        ):
            return f"{ast.unparse(func.value)}.{func.attr}()"
        if func.attr in ("recv", "recv_into", "accept", "connect", "sendall") and (
            "sock" in receiver or "conn" in receiver
        ):
            return f"{ast.unparse(func.value)}.{func.attr}()"
    return None


class ProcessSpawnUnderLockRule(Rule):
    """DYG404: no fork/process-pool spawn inside a lock-guarded region."""

    code = "DYG404"
    name = "process-spawn-under-lock"
    summary = "fork/ProcessPoolExecutor/multiprocessing spawn while holding a lock"
    fix = "spawn processes before taking locks — a forked child inherits held locks mid-state"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        imports = ImportMap.of(ctx.tree)
        for call, held in _walker(ctx).guarded_calls:
            description = _spawn_description(call, imports)
            if description is not None:
                yield Finding.at(
                    call,
                    f"{description} while holding {held[-1]!r}: a forked child "
                    "inherits the held lock mid-state and deadlocks on first "
                    "contact; spawn workers before locking",
                )


def _spawn_description(call: ast.Call, imports: ImportMap) -> "str | None":
    """A human-readable label when ``call`` spawns a process."""
    func = call.func
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in imports.module_aliases("os")
            and func.attr in ("fork", "forkpty")
        ):
            return f"os.{func.attr}()"
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in imports.module_aliases("multiprocessing")
            and func.attr in _MP_SPAWNS
        ):
            return f"multiprocessing.{func.attr}()"
        if func.attr == "ProcessPoolExecutor":
            return "ProcessPoolExecutor(...)"
        if func.attr in _POOL_SPAWNS:
            return f"{func.attr}(...)"
    if isinstance(func, ast.Name):
        if func.id in imports.member_aliases("concurrent.futures", "ProcessPoolExecutor"):
            return "ProcessPoolExecutor(...)"
        for member in _MP_SPAWNS:
            if func.id in imports.member_aliases("multiprocessing", member):
                return f"multiprocessing.{member}()"
        for member in ("fork", "forkpty"):
            if func.id in imports.member_aliases("os", member):
                return f"os.{member}()"
        for member in _POOL_SPAWNS:
            if func.id in imports.member_aliases(_POOL_MODULE, member):
                return f"{member}(...)"
    return None
