"""Serving-layer configuration.

One frozen dataclass holds every tunable of the grouping service —
session TTLs, the memo bound, HTTP binding, SLOs, matchmaking — validated
eagerly through :mod:`repro._validation` so a bad ``dygroups serve``
invocation fails at startup with an actionable message, not mid-request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro._validation import require_positive_int

__all__ = ["ServeConfig", "DEFAULT_PORT", "MAX_BODY_BYTES"]

#: Default TCP port of ``dygroups serve``.
DEFAULT_PORT = 8750

#: Largest accepted request body (a 1M-member cohort is ~20 MB of JSON).
MAX_BODY_BYTES = 32 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of the grouping service.

    Attributes:
        host: interface the HTTP server binds to.
        port: TCP port (0 lets the OS pick an ephemeral port).
        cache_size: maximum entries in the grouping memo; 0 disables it.
        session_ttl: seconds of inactivity before a cohort is evicted.
        max_cohorts: upper bound on live cohorts (admission control).
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
    cache_size: int = 1024
    session_ttl: float = 1800.0
    max_cohorts: int = 4096
    slo: "Mapping[str, float] | None" = None
    matchmaking: "Mapping[str, Any] | None" = None

    def __post_init__(self) -> None:
        if not isinstance(self.port, int) or isinstance(self.port, bool) or not 0 <= self.port <= 65535:
            raise ValueError(f"port must be an int in [0, 65535], got {self.port!r}")
        if not isinstance(self.cache_size, int) or isinstance(self.cache_size, bool) or self.cache_size < 0:
            raise ValueError(f"cache_size must be a non-negative int, got {self.cache_size!r}")
        if not self.session_ttl > 0:
            raise ValueError(f"session_ttl must be positive, got {self.session_ttl!r}")
        require_positive_int(self.max_cohorts, name="max_cohorts")
        if not self.host or not isinstance(self.host, str):
            raise ValueError(f"host must be a non-empty string, got {self.host!r}")
        if self.slo is not None and not isinstance(self.slo, Mapping):
            raise ValueError(f"slo must be a mapping of SLO targets, got {self.slo!r}")
        if self.matchmaking is not None and not isinstance(self.matchmaking, Mapping):
            raise ValueError(
                f"matchmaking must be a configuration mapping, got {self.matchmaking!r}"
            )
