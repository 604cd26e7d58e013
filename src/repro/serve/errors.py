"""Error model of the serving layer.

Every failure the service can report maps to one :class:`ServeError`
subclass carrying an HTTP ``status`` and a stable machine-readable
``code``.  The HTTP front-end renders them as a structured envelope::

    {"error": {"code": "cohort_not_found", "message": "..."}}

and the clients re-raise them from that envelope, so in-process and
over-the-wire callers see the same exception types.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ServeError",
    "InvalidRequest",
    "CohortNotFound",
    "SessionExpired",
    "SchedulerSaturated",
    "CapacityExhausted",
    "RequestTimeout",
    "ServiceClosed",
    "ParticipantNotFound",
    "DuplicateJoin",
    "MatchmakingDisabled",
    "error_from_envelope",
]


class ServeError(Exception):
    """Base class for service failures.

    Attributes:
        status: HTTP status the front-end responds with.
        code: stable machine-readable error code for the envelope.
    """

    status: int = 500
    code: str = "internal_error"

    def envelope(self) -> dict[str, Any]:
        """The structured error payload the HTTP layer serializes."""
        return {"error": {"code": self.code, "message": str(self)}}


class InvalidRequest(ServeError):
    """The request payload failed validation (bad skills, k, mode, ...)."""

    status = 400
    code = "invalid_request"


class CohortNotFound(ServeError):
    """No cohort is registered under the requested id."""

    status = 404
    code = "cohort_not_found"


class SessionExpired(ServeError):
    """The cohort existed but was evicted after its TTL elapsed."""

    status = 410
    code = "session_expired"


class SchedulerSaturated(ServeError):
    """The round-step queue is full — backpressure, retry later."""

    status = 429
    code = "scheduler_saturated"


class CapacityExhausted(ServeError):
    """The session store holds its maximum number of live cohorts."""

    status = 429
    code = "capacity_exhausted"


class RequestTimeout(ServeError):
    """A queued round-step request did not complete within the deadline."""

    status = 504
    code = "request_timeout"


class ServiceClosed(ServeError):
    """The service is shutting down and no longer accepts work."""

    status = 503
    code = "service_closed"


class ParticipantNotFound(ServeError):
    """No participant is registered under the requested id (or it aged
    out of the queue's bounded resolved memory)."""

    status = 404
    code = "participant_not_found"


class DuplicateJoin(ServeError):
    """The participant id is already registered in the join queue."""

    status = 409
    code = "duplicate_join"


class MatchmakingDisabled(ServeError):
    """The service was started without the matchmaking layer."""

    status = 404
    code = "matchmaking_disabled"


_BY_CODE: dict[str, type[ServeError]] = {
    cls.code: cls
    for cls in (
        ServeError,
        InvalidRequest,
        CohortNotFound,
        SessionExpired,
        SchedulerSaturated,
        CapacityExhausted,
        RequestTimeout,
        ServiceClosed,
        ParticipantNotFound,
        DuplicateJoin,
        MatchmakingDisabled,
    )
}


def error_from_envelope(payload: Any, *, status: int | None = None) -> ServeError:
    """Rebuild the typed :class:`ServeError` from a response envelope.

    Unknown or malformed envelopes degrade to a plain :class:`ServeError`
    (never raises on bad input — this runs in client error paths).
    """
    code = ""
    message = "unknown service error"
    if isinstance(payload, dict):
        error = payload.get("error")
        if isinstance(error, dict):
            code = str(error.get("code", ""))
            message = str(error.get("message", message))
    cls = _BY_CODE.get(code, ServeError)
    exc = cls(message)
    if status is not None:
        exc.status = status
    return exc
