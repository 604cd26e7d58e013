"""Content-addressed grouping memo with LRU bounds.

Served trajectories replay: a cohort advanced from a known state, or
two cohorts created from the same payload, present bitwise-equal skill
arrays to the DyGroups-Local groupers (Algorithms 2 and 3).  The memo
keys each finished :class:`~repro.core.grouping.Grouping` by a BLAKE2b
digest of ``(mode, k, n)`` plus the raw skill bytes, so a replayed
array is answered with one hash and one dict probe — no sort and no
``Grouping`` construction.  Any other array is a miss: it is grouped
through its own stable descending argsort and
:func:`repro.core.batch.flat_rank_listing`, which reproduces the scalar
grouper bit for bit (property-tested in
``tests/properties/test_serve_properties.py``), and stored.

Hit/miss/eviction counters are exported through the process-global
:mod:`repro.obs.metrics` registry under ``serve.cache.*``; the memo is
thread-safe and bounded (least-recently-used eviction).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any

import numpy as np

from repro.analysis import sanitizer as _sanitize
from repro.core.batch import flat_rank_listing
from repro.core.grouping import Grouping
from repro.obs import runtime as _obs

__all__ = ["GroupingCache"]


def _digest(*parts: bytes) -> bytes:
    hasher = hashlib.blake2b(digest_size=16)
    for part in parts:
        hasher.update(part)
    return hasher.digest()


class GroupingCache:
    """Thread-safe LRU memo for DyGroups-Local groupings.

    Args:
        max_entries: LRU bound; the least recently used entry is evicted
            once the bound is exceeded.  Must be positive (a service that
            wants no cache passes ``cache_size=0`` and skips construction).
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if not isinstance(max_entries, int) or isinstance(max_entries, bool) or max_entries <= 0:
            raise ValueError(f"max_entries must be a positive int, got {max_entries!r}")
        self.max_entries = max_entries
        self._lock = _sanitize.lock("serve.cache")
        #: raw-array digest → grouping, in LRU order.
        self._entries: "OrderedDict[bytes, Grouping]" = OrderedDict()
        registry = _obs.metrics_registry()
        # Registry counters are process-global (every cache in the process
        # shares the serve.cache.* series exported via /metrics); the
        # instance-local ints back stats(), which must describe THIS memo.
        self._hits = registry.counter("serve.cache.hits")
        self._misses = registry.counter("serve.cache.misses")
        self._evictions = registry.counter("serve.cache.evictions")
        self._local = {"hits": 0, "misses": 0, "evictions": 0}

    def __len__(self) -> int:
        return len(self._entries)

    # -- entry points ------------------------------------------------------

    def propose(self, skills: np.ndarray, k: int, mode: str) -> Grouping:
        """The memoized DyGroups-Local grouping of ``skills`` into ``k``.

        Bit-identical to ``dygroups_star_local`` / ``dygroups_clique_local``
        on the same inputs, whether served cold or from the memo.

        Args:
            skills: 1-D positive ``float64`` skill array (validated by the
                caller; the service routes every request through
                :func:`repro._validation.as_skill_array` first).
            k: number of groups; must divide ``len(skills)``.
            mode: ``"star"`` or ``"clique"``.
        """
        array = np.ascontiguousarray(skills, dtype=np.float64)
        key = _digest(f"{mode}|{k}|{array.size}|".encode(), array.tobytes())
        hit = self._probe(key)
        if hit is not None:
            return hit
        return self._settle(np.argsort(-array, kind="stable"), k, mode, key)

    # -- internals ---------------------------------------------------------

    def _probe(self, key: bytes) -> "Grouping | None":
        """Counts a hit, never a miss (the caller settles a miss)."""
        with self._lock:
            grouping = self._entries.get(key)
            if grouping is None:
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            self._local["hits"] += 1
            return grouping

    def _settle(self, order: np.ndarray, k: int, mode: str, key: bytes) -> Grouping:
        """Build the grouping of a miss from its descending ``order``, count it, store it."""
        n = order.size
        listing = flat_rank_listing(n, k, mode)
        # order[listing] is a permutation of 0..n-1, so the trusted
        # constructor can skip the partition checks (hot on every miss).
        grouping = Grouping.from_members(order[listing].reshape(k, n // k))
        with self._lock:
            self._misses.inc()
            self._local["misses"] += 1
            self._entries[key] = grouping
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
                self._local["evictions"] += 1
        return grouping

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """This memo's counts plus current size (for ``/healthz`` payloads)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                **self._local,
            }

    def __repr__(self) -> str:
        return f"GroupingCache(entries={len(self._entries)}, max_entries={self.max_entries})"
