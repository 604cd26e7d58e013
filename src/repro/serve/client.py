"""Clients for the grouping service: in-process and over-the-wire.

Both clients expose the same operations with the same payloads and
raise the same typed :mod:`repro.serve.errors` exceptions, so tests and
benchmarks can swap transports freely:

* :class:`InProcessClient` calls a :class:`~repro.serve.service.GroupingService`
  directly — zero serialization, ideal for closed-loop benchmarks that
  should measure the service and not the socket;
* :class:`HttpClient` speaks the JSON API over :mod:`urllib` (stdlib
  only) and rebuilds typed errors from the structured envelope.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.serve.errors import ServeError, error_from_envelope
from repro.serve.service import GroupingService

__all__ = ["InProcessClient", "HttpClient"]


def _cohort_payload(
    skills: Sequence[float],
    k: int,
    *,
    mode: str = "star",
    rate: float = 0.5,
    policy: str = "dygroups",
    seed: int = 0,
    record_history: bool = False,
) -> dict[str, Any]:
    return {
        "skills": [float(s) for s in skills],
        "k": k,
        "mode": mode,
        "rate": rate,
        "policy": policy,
        "seed": seed,
        "record_history": record_history,
    }


def _join_payload(
    skill: float, *, participant: "str | None", spec: "str | None"
) -> dict[str, Any]:
    payload: dict[str, Any] = {"skill": float(skill)}
    if participant is not None:
        payload["participant"] = participant
    if spec is not None:
        payload["spec"] = spec
    return payload


class InProcessClient:
    """Client facade over a live :class:`GroupingService` in this process."""

    def __init__(self, service: GroupingService) -> None:
        self.service = service

    def create_cohort(
        self,
        skills: Sequence[float],
        k: int,
        *,
        mode: str = "star",
        rate: float = 0.5,
        policy: str = "dygroups",
        seed: int = 0,
        record_history: bool = False,
    ) -> dict[str, Any]:
        """Create a cohort; returns its summary (including the new id)."""
        return self.service.create_cohort(
            _cohort_payload(
                skills,
                k,
                mode=mode,
                rate=rate,
                policy=policy,
                seed=seed,
                record_history=record_history,
            )
        )

    def advance_rounds(self, cohort_id: str, rounds: int = 1) -> dict[str, Any]:
        """Advance ``rounds`` rounds; returns the played records."""
        return self.service.advance_rounds(cohort_id, rounds)

    def get_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Inspect a cohort and its trajectory."""
        return self.service.get_cohort(cohort_id, include_history=True)

    def delete_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Remove a cohort; returns its final summary."""
        return self.service.delete_cohort(cohort_id)

    def join(
        self,
        skill: float,
        *,
        participant: "str | None" = None,
        spec: "str | None" = None,
    ) -> dict[str, Any]:
        """Join the matchmaking queue; returns the participant payload."""
        return self.service.join(_join_payload(skill, participant=participant, spec=spec))

    def participant_status(self, participant_id: str) -> dict[str, Any]:
        """Status of a queued participant (waiting/matched/expired/left)."""
        return self.service.participant_status(participant_id)

    def leave_queue(self, participant_id: str) -> dict[str, Any]:
        """Withdraw a waiting participant; idempotent on resolved ones."""
        return self.service.leave_queue(participant_id)

    def matchmaking(self) -> dict[str, Any]:
        """Matchmaking snapshot: queue depths, specs, condensed cohorts."""
        return self.service.matchmaking_snapshot()

    def healthz(self) -> dict[str, Any]:
        """Service liveness payload."""
        return self.service.healthz()

    def metrics(self) -> dict[str, Any]:
        """Metrics-registry snapshot."""
        return self.service.metrics_snapshot()


class HttpClient:
    """Stdlib-urllib client for a running grouping server.

    Args:
        base_url: server root, e.g. ``"http://127.0.0.1:8750"``.
        timeout: per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(
        self, method: str, path: str, payload: "Mapping[str, Any] | None" = None
    ) -> dict[str, Any]:
        # Imported here: urllib.request loads http.client, email and ssl,
        # which a serving process that never calls out has no use for.
        import urllib.error
        import urllib.request

        body = None if payload is None else json.dumps(payload).encode()
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            try:
                envelope = json.loads(error.read())
            except (json.JSONDecodeError, OSError):
                envelope = None
            finally:
                error.close()  # the error holds the response and its socket
            raise error_from_envelope(envelope, status=error.code) from None
        except urllib.error.URLError as error:
            raise ServeError(f"cannot reach grouping server at {self.base_url}: {error.reason}") from None

    def create_cohort(
        self,
        skills: Sequence[float],
        k: int,
        *,
        mode: str = "star",
        rate: float = 0.5,
        policy: str = "dygroups",
        seed: int = 0,
        record_history: bool = False,
    ) -> dict[str, Any]:
        """Create a cohort; returns its summary (including the new id)."""
        return self._request(
            "POST",
            "/v1/cohorts",
            _cohort_payload(
                skills,
                k,
                mode=mode,
                rate=rate,
                policy=policy,
                seed=seed,
                record_history=record_history,
            ),
        )

    def advance_rounds(self, cohort_id: str, rounds: int = 1) -> dict[str, Any]:
        """Advance ``rounds`` rounds; returns the played records."""
        return self._request("POST", f"/v1/cohorts/{cohort_id}/rounds", {"rounds": rounds})

    def get_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Inspect a cohort and its trajectory."""
        return self._request("GET", f"/v1/cohorts/{cohort_id}")

    def delete_cohort(self, cohort_id: str) -> dict[str, Any]:
        """Remove a cohort; returns its final summary."""
        return self._request("DELETE", f"/v1/cohorts/{cohort_id}")

    def join(
        self,
        skill: float,
        *,
        participant: "str | None" = None,
        spec: "str | None" = None,
    ) -> dict[str, Any]:
        """Join the matchmaking queue; returns the participant payload."""
        return self._request(
            "POST", "/v1/join", _join_payload(skill, participant=participant, spec=spec)
        )

    def participant_status(self, participant_id: str) -> dict[str, Any]:
        """Status of a queued participant (waiting/matched/expired/left)."""
        return self._request("GET", f"/v1/participants/{participant_id}")

    def leave_queue(self, participant_id: str) -> dict[str, Any]:
        """Withdraw a waiting participant; idempotent on resolved ones."""
        return self._request("DELETE", f"/v1/participants/{participant_id}")

    def matchmaking(self) -> dict[str, Any]:
        """Matchmaking snapshot: queue depths, specs, condensed cohorts."""
        return self._request("GET", "/v1/matchmaking")

    def healthz(self) -> dict[str, Any]:
        """Server liveness payload."""
        return self._request("GET", "/healthz")

    def metrics(self) -> dict[str, Any]:
        """Metrics-registry snapshot from the server process."""
        return self._request("GET", "/metrics")
