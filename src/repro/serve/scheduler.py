"""The served round path: every round a service plays runs here, inline.

A served round is one Algorithm-1 step (propose, update, gain) for one
cohort.  :meth:`BatchScheduler.step_rounds` runs a cohort's rounds on the
calling request thread through :meth:`CohortSession.advance_round
<repro.serve.sessions.CohortSession.advance_round>`, which takes the
session lock and drives the session's
:class:`~repro.engine.kernel.RoundKernel` — the kernel the offline
``simulate`` driver runs — so served trajectories are bit-identical to
offline ones.

The propose step is the grouping memo's
(:meth:`GroupingCache.propose <repro.serve.cache.GroupingCache.propose>`)
for DyGroups star and clique cohorts when the service has a memo, and
the session policy's own propose otherwise.  The memo is keyed on the
policy's grouper, not on the cohort's interaction mode, so a
``dygroups-star`` cohort playing clique rounds still gets the star
grouping its policy proposes.

``serve.scheduler.kernel_seconds`` times each call (all of its rounds).
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.analysis import contracts as _contracts
from repro.core.dygroups import DyGroupsClique, DyGroupsStar
from repro.core.grouping import Grouping
from repro.engine.kernel import ProposeFn
from repro.obs import runtime as _obs
from repro.serve.cache import GroupingCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.sessions import CohortSession

__all__ = ["BatchScheduler"]

#: Policies whose proposal the memo reproduces, with the grouper it runs.
#: Exact types: a subclass may propose differently.
_MEMO_GROUPERS: "dict[type, str]" = {DyGroupsStar: "star", DyGroupsClique: "clique"}


class BatchScheduler:
    """Runs served rounds on the request thread.

    Nothing is batched; the class keeps its name because
    ``perfbench/layers.py`` wraps its methods by name.

    Args:
        cache: grouping memo proposing for DyGroups star/clique cohorts;
            ``None`` leaves every cohort to its policy's own propose.
    """

    def __init__(self, cache: "GroupingCache | None" = None) -> None:
        self.cache = cache
        self._kernel_seconds = _obs.metrics_registry().timer("serve.scheduler.kernel_seconds")

    def step_rounds(self, session: "CohortSession", rounds: int) -> "list[dict[str, Any]]":
        """Advance ``session`` by ``rounds`` rounds; returns their records in play order.

        Each record is ``{"round": t, "gain": g, "groups": [[...], ...]}``.

        Raises:
            ValueError: for a non-positive round count.
        """
        if not isinstance(rounds, int) or isinstance(rounds, bool) or rounds <= 0:
            raise ValueError(f"rounds must be a positive int, got {rounds!r}")
        propose = self._propose_fn(session)
        with self._kernel_seconds.time():
            return [session.advance_round(propose) for _ in range(rounds)]

    def submit_step(
        self, session: "CohortSession", rounds: int = 1
    ) -> "Future[list[dict[str, Any]]]":
        """:meth:`step_rounds`, answered as an already-resolved future.

        Nothing in the service calls this; ``perfbench/layers.py`` wraps
        it, which is its only reason to exist.
        """
        future: "Future[list[dict[str, Any]]]" = Future()
        try:
            future.set_result(self.step_rounds(session, rounds))
        except Exception as error:
            future.set_exception(error)
        return future

    def _propose_fn(self, session: "CohortSession") -> "ProposeFn | None":
        """The memo's propose for a DyGroups cohort, or ``None`` for the policy's own."""
        grouper = _MEMO_GROUPERS.get(type(session.policy))
        if self.cache is None or grouper is None:
            return None
        cache = self.cache

        def propose(skills: np.ndarray, k: int, rng: np.random.Generator) -> Grouping:
            grouping = cache.propose(skills, k, grouper)
            if _contracts.contracts_enabled():
                # Parity with DyGroupsStar/Clique.propose, which check
                # Theorem 1 on every offline proposal.
                _contracts.check_top_k_teachers(skills, grouping)
            return grouping

        return propose
