"""Threaded integration tests: many clients hammering one service.

The satellite acceptance case: N threads advancing a single cohort
concurrently must lose no rounds, mint no duplicate round indices, and
stay contracts-clean with the runtime invariant checks enabled.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis import contracts
from repro.baselines.registry import make_policy
from repro.core.simulation import simulate
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService

N_THREADS = 8
ROUNDS_PER_THREAD = 10


@pytest.fixture
def skills() -> np.ndarray:
    return np.random.default_rng(9).uniform(1.0, 9.0, size=30)


@pytest.mark.parametrize("mode", ["star", "clique"])
def test_one_cohort_hammered_from_many_threads(skills, mode):
    """No lost rounds, no duplicate indices, contracts-clean throughout."""
    with contracts.contracts_scope():
        assert contracts.contracts_enabled()
        with GroupingService(ServeConfig(cache_size=256)) as service:
            cohort = service.create_cohort(
                {"skills": skills.tolist(), "k": 5, "mode": mode, "seed": 21}
            )["cohort"]
            barrier = threading.Barrier(N_THREADS)

            def hammer(_: int) -> list[int]:
                barrier.wait()
                indices: list[int] = []
                for _ in range(ROUNDS_PER_THREAD):
                    result = service.advance_rounds(cohort, 1)
                    indices.extend(r["round"] for r in result["played"])
                return indices

            with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
                per_thread = list(pool.map(hammer, range(N_THREADS)))

            total = N_THREADS * ROUNDS_PER_THREAD
            seen = [i for indices in per_thread for i in indices]
            assert len(seen) == total, "a round was lost"
            assert sorted(seen) == list(range(total)), "duplicate or skipped round index"

            payload = service.get_cohort(cohort)
            assert payload["rounds"] == total

            # The interleaved trajectory is STILL the offline trajectory:
            # rounds are serialized by the session lock, so 80 concurrent
            # advances equal one offline run of alpha=80.
            reference = simulate(
                make_policy("dygroups", mode=mode, rate=0.5),
                skills, k=5, alpha=total, mode=mode, rate=0.5, seed=21,
            )
            assert np.array_equal(np.array(payload["skills"]), reference.final_skills)


def test_many_cohorts_created_and_advanced_concurrently(skills):
    with GroupingService(ServeConfig(cache_size=256)) as service:

        def worker(seed: int) -> float:
            cohort = service.create_cohort(
                {"skills": skills.tolist(), "k": 5, "seed": seed}
            )["cohort"]
            result = service.advance_rounds(cohort, 5)
            return result["total_gain"]

        with ThreadPoolExecutor(max_workers=8) as pool:
            gains = list(pool.map(worker, [3] * 12))

    # Identical seed and skills: every concurrent cohort lands on the
    # same deterministic trajectory.
    assert len(set(gains)) == 1

