"""Threaded joins: every arrival condenses into exactly one cohort.

Concurrent joiners race through the matchmaker's fill condensation.
Whatever the fan-in, a pool that is an exact multiple of the spec size
(and whose deadline never fires) must end with every participant
matched, no one left waiting, and the cohorts holding the arrivals'
skills exactly once each.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs import runtime as obs_runtime
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService

#: Cohorts condensed per run; each fills at ``N`` joins.
WAVES = 8
N, K = 8, 2


@pytest.mark.parametrize("joiners", [1, 8, 64])
def test_every_arrival_condenses_under_concurrent_joiners(joiners):
    skills = np.random.default_rng(7).uniform(1.0, 10.0, size=WAVES * N)
    service = GroupingService(
        ServeConfig(
            workers=0,
            matchmaking={
                "specs": [{"n": N, "k": K, "deadline_seconds": 600.0}],
                "tick_interval": None,
            },
        )
    )
    try:
        barrier = threading.Barrier(joiners)

        def join_share(worker: int) -> list[str]:
            barrier.wait()
            return [
                service.join({"skill": float(skills[i]), "participant": f"p{i}"})["participant"]
                for i in range(worker, len(skills), joiners)
            ]

        with ThreadPoolExecutor(max_workers=joiners) as pool:
            joined = [pid for ids in pool.map(join_share, range(joiners)) for pid in ids]

        assert sorted(joined) == sorted(f"p{i}" for i in range(len(skills)))
        for pid in joined:
            assert service.participant_status(pid)["status"] == "matched", pid
        snapshot = service.matchmaking_snapshot()
        assert snapshot["waiting"] == 0
        assert snapshot["condensed"] == WAVES
        cohorts = snapshot["specs"]["default"]["cohorts"]
        condensed = [s for c in cohorts for s in service.get_cohort(c)["skills"]]
        assert sorted(condensed) == sorted(skills.tolist())
        metrics = obs_runtime.metrics_registry().snapshot()
        assert metrics["counters"]["matchmaking.matched"]["value"] == len(skills)
        assert metrics["histograms"]["matchmaking.time_to_match_seconds"]["count"] == len(skills)
    finally:
        service.close()
