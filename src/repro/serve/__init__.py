"""repro.serve — the grouping service layer.

Serves the reproduction's DyGroups engine as a long-running service:

* :mod:`repro.serve.sessions` — in-memory cohort store with TTL eviction;
* :mod:`repro.serve.cache` — content-addressed grouping memo (LRU);
* :mod:`repro.serve.scheduler` — the served round path: every round
  runs inline on the request thread, proposing from the memo for
  DyGroups cohorts;
* :mod:`repro.serve.http` — stdlib JSON API (``dygroups serve``);
* :mod:`repro.serve.client` — in-process and urllib clients;
* :mod:`repro.serve.errors` — typed failures with HTTP statuses.

The service path is bit-identical to the offline engine: a cohort
advanced ``α`` rounds over the API reproduces ``simulate()`` with the
same seed exactly, whether proposals come from the policy's own grouper
or the memo (pinned by the integration and property tests).
"""

from repro.serve.cache import GroupingCache
from repro.serve.client import HttpClient, InProcessClient
from repro.serve.config import ServeConfig
from repro.serve.errors import (
    CapacityExhausted,
    CohortNotFound,
    DuplicateJoin,
    InvalidRequest,
    MatchmakingDisabled,
    ParticipantNotFound,
    ServeError,
    ServiceClosed,
    SessionExpired,
)
from repro.serve.http import GroupingHTTPServer, run_server, start_server
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import GroupingService
from repro.serve.sessions import CohortSession, SessionStore

__all__ = [
    "BatchScheduler",
    "CapacityExhausted",
    "CohortNotFound",
    "CohortSession",
    "DuplicateJoin",
    "GroupingCache",
    "GroupingHTTPServer",
    "GroupingService",
    "HttpClient",
    "InProcessClient",
    "InvalidRequest",
    "MatchmakingDisabled",
    "ParticipantNotFound",
    "ServeConfig",
    "ServeError",
    "ServiceClosed",
    "SessionExpired",
    "SessionStore",
    "run_server",
    "start_server",
]
