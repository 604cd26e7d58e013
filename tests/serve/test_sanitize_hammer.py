"""Concurrency hammer: 8 threads vs the session store under the sanitizer.

Creates, advances, reads, deletes, and TTL-evicts cohorts from eight
threads at once with the lock sanitizer recording every acquisition.
The assertions are (a) no thread died, (b) the store's bookkeeping is
consistent afterwards, and (c) the sanitizer saw zero order inversions
and zero held-lock blocking calls — the serve layer's lock discipline
holds under real contention, not just on the AST.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.serve.config import ServeConfig
from repro.serve.errors import CohortNotFound, SessionExpired
from repro.serve.service import GroupingService

THREADS = 8
OPS_PER_THREAD = 25
SKILLS = [8.0, 5.0, 4.5, 4.0, 2.5, 2.0]


@pytest.fixture
def sanitized_service():
    with sanitizer.sanitize_scope():
        sanitizer.reset()
        # Tiny TTL so eviction races the hammer threads' advances.
        service = GroupingService(ServeConfig(session_ttl=0.05, cache_size=64))
        try:
            yield service
        finally:
            service.close()


class TestSessionStoreHammer:
    def test_eight_thread_ttl_eviction_hammer(self, sanitized_service):
        service = sanitized_service
        errors: list[BaseException] = []
        barrier = threading.Barrier(THREADS)

        def worker(worker_id: int) -> None:
            rng = np.random.default_rng(worker_id)
            barrier.wait()
            try:
                for op in range(OPS_PER_THREAD):
                    payload = {
                        "skills": SKILLS,
                        "k": 2,
                        "seed": int(worker_id * 1000 + op),
                    }
                    created = service.create_cohort(payload)
                    cohort = created["cohort"]
                    try:
                        service.advance_rounds(cohort, 1)
                        service.get_cohort(cohort)
                        if rng.random() < 0.3:
                            service.delete_cohort(cohort)
                    except (SessionExpired, CohortNotFound):
                        # Expected race: another thread's sweep evicted us
                        # mid-op. The hammer cares about lock discipline,
                        # not TTL outcomes.
                        pass
                    if rng.random() < 0.2:
                        # Let the TTL lapse, then force the eviction sweep
                        # (on_evict → journal/counter path runs under the
                        # store lock).
                        time.sleep(0.06)
                        service.store.evict_expired()
            except BaseException as error:
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,), name=f"hammer-{i}")
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "hammer deadlocked"
        assert errors == []
        # Bookkeeping survived the contention: the store and service still
        # answer coherently (ids() runs a final eviction sweep itself).
        assert len(service.store.ids()) == len(service.store)
        assert service.healthz()["status"] == "ok"
        assert sanitizer.reports() == (), (
            "lock sanitizer reported violations under the hammer:\n"
            + "\n".join(str(r) for r in sanitizer.reports())
        )

    def test_hammer_used_instrumented_locks(self, sanitized_service):
        # Guard against silently running the hammer uninstrumented.
        assert type(sanitized_service.store._lock) is sanitizer.SanitizedLock
