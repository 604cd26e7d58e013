"""Serving-layer configuration.

One frozen dataclass holds every tunable of the grouping service —
session TTLs, cache bounds, scheduler sizing, HTTP binding — validated
eagerly through :mod:`repro._validation` so a bad ``dygroups serve``
invocation fails at startup with an actionable message, not mid-request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro._validation import require_positive_int

__all__ = ["ServeConfig", "DEFAULT_PORT", "MAX_BODY_BYTES", "REQUEST_HISTOGRAM_KEEP"]

#: Default TCP port of ``dygroups serve``.
DEFAULT_PORT = 8750

#: Largest accepted request body (a 1M-member cohort is ~20 MB of JSON).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Raw-retention bound for every request-path histogram/timer (HTTP
#: request latency, scheduler wait/assembly/kernel stages, scenario
#: load-generator latencies).  A long-lived ``dygroups serve`` process
#: records one observation per request; unbounded retention would grow
#: memory without bound, so percentiles describe the most recent
#: ``REQUEST_HISTOGRAM_KEEP`` observations while count/total/min/max
#: keep tracking the full stream.
REQUEST_HISTOGRAM_KEEP = 4096


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the grouping service.

    Attributes:
        host: interface the HTTP server binds to.
        port: TCP port (0 lets the OS pick an ephemeral port).
        workers: scheduler worker threads; 0 disables the batching
            scheduler and computes proposals inline on the request thread.
        cache_size: maximum entries in the grouping memo; 0 disables it.
        session_ttl: seconds of inactivity before a cohort is evicted.
        max_cohorts: upper bound on live cohorts (admission control).
        queue_depth: bound of the scheduler's request queue — submissions
            beyond it are rejected with ``429 scheduler_saturated``.
        batch_max: most round-step requests drained into one batch.
        batch_min: smallest same-``(n, k, mode, rate)`` backlog worth
            stacking into one wave.  Below it the wave's fixed costs
            (queue round trip, stack/unstack, waking waiters) outweigh
            the vectorization win, so the step falls through to the
            inline kernel (both paths are bit-identical).  Must be an
            int ``>= 2``.
        request_timeout: seconds a request waits on the scheduler before
            giving up.
        slo: optional SLO target mapping (the fields of
            :class:`repro.scenarios.spec.SLOSpec`, e.g.
            ``{"latency_p95_ms": 250}``).  When set, ``GET /metrics``
            evaluates the targets against the live registry and serves
            the verdict block; parsed and fully validated by the
            service at startup.
        matchmaking: optional matchmaking-layer configuration; ``None``
            (the default) leaves the layer off and its endpoints answer
            ``404 matchmaking_disabled``.  Keys: ``"specs"`` — a list of
            :class:`repro.matchmaking.spec.GroupSpec` field mappings
            (default: one spec with all defaults) — and
            ``"tick_interval"`` — the condenser-thread period in
            seconds (``None`` disables the thread; tests drive
            ``Matchmaker.tick`` directly).  Parsed and fully validated
            by the service at startup.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    workers: int = 2
    cache_size: int = 1024
    session_ttl: float = 1800.0
    max_cohorts: int = 4096
    queue_depth: int = 256
    batch_max: int = 32
    batch_min: int = 4
    request_timeout: float = 30.0
    slo: "Mapping[str, float] | None" = None
    matchmaking: "Mapping[str, Any] | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.port, int) or isinstance(self.port, bool) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be an int in [0, 65535], got {self.port!r}")
        if not isinstance(self.workers, int) or isinstance(self.workers, bool) or self.workers < 0:
            raise ValueError(f"workers must be a non-negative int, got {self.workers!r}")
        if not isinstance(self.cache_size, int) or isinstance(self.cache_size, bool) or self.cache_size < 0:
            raise ValueError(f"cache_size must be a non-negative int, got {self.cache_size!r}")
        if not self.session_ttl > 0:
            raise ValueError(f"session_ttl must be positive, got {self.session_ttl!r}")
        if not self.request_timeout > 0:
            raise ValueError(f"request_timeout must be positive, got {self.request_timeout!r}")
        require_positive_int(self.max_cohorts, name="max_cohorts")
        require_positive_int(self.queue_depth, name="queue_depth")
        require_positive_int(self.batch_max, name="batch_max")
        if not isinstance(self.batch_min, int) or isinstance(self.batch_min, bool) or self.batch_min < 2:
            raise ValueError(f"batch_min must be an int >= 2, got {self.batch_min!r}")
        if not self.host or not isinstance(self.host, str):
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        if self.slo is not None and not isinstance(self.slo, Mapping):
            raise ValueError(f"slo must be a mapping of SLO targets, got {self.slo!r}")
        if self.matchmaking is not None and not isinstance(self.matchmaking, Mapping):
            raise ValueError(
                f"matchmaking must be a configuration mapping, got {self.matchmaking!r}"
            )
