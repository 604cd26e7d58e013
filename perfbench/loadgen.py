"""The closed-loop HTTP load generator of the serve workloads.

One process, at most ``os.cpu_count()`` threads, one keep-alive
connection per thread.  Each thread sends its next request only after the
previous response arrived (a closed loop: callers that wait for replies).
A *script* decides what each connection sends and reads what comes back;
the generator times the request in flight and, separately, its own work
(building the request, parsing the response) as ``loadgen.client`` spans,
so a slow generator shows up as generator time and not as server latency.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Protocol, Sequence

__all__ = ["Client", "Cohort", "ConnectionResult", "JoinScript", "RoundsScript", "Script"]

_HEADERS = {"Content-Type": "application/json"}


class Script(Protocol):
    """What one connection sends; must not depend on timing."""

    def next_request(self) -> "tuple[str, str, str, bytes | None]":
        """``(kind, method, path, body)`` of the next request."""

    def on_response(self, kind: str, status: "int | None", payload: Any) -> bool:
        """Digest a response (``status`` is ``None`` on a transport error); ``True`` if it succeeded."""


@dataclass
class ConnectionResult:
    """What one connection measured during a loop."""

    samples: list[tuple[str, int, bool]] = field(default_factory=list)
    requests: list[tuple[int, int, str]] = field(default_factory=list)
    client: list[tuple[int, int]] = field(default_factory=list)
    start: int = 0
    end: int = 0

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for _, _, ok in self.samples if not ok)


class Client:
    """Keep-alive connections to one server, opened before the timed phase.

    Raises:
        RuntimeError: when asked for more connections than the host has
            processors — the generator would then be measured, not the server.
    """

    def __init__(self, port: int, connections: int, *, timeout: float = 60.0) -> None:
        limit = os.cpu_count() or 1
        if not 1 <= connections <= limit:
            raise RuntimeError(f"the generator may hold 1..{limit} connections, not {connections}")
        self.port = port
        self.limit = limit
        self._timeout = timeout
        self._lock = threading.Lock()
        self._open = 0
        self.peak_connections = 0
        self.peak_threads = 0
        self.connections = [self._connect() for _ in range(connections)]

    def _connect(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._open >= self.limit:
                raise RuntimeError(f"the generator already holds {self._open} connections")
            self._open += 1
            self.peak_connections = max(self.peak_connections, self._open)
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=self._timeout)
        connection.connect()
        return connection

    def _reconnect(self, index: int) -> None:
        self.connections[index].close()
        with self._lock:
            self._open -= 1
        self.connections[index] = self._connect()

    def close(self) -> None:
        """Close every connection."""
        for connection in self.connections:
            connection.close()
        with self._lock:
            self._open = 0

    def request(self, method: str, path: str, body: "bytes | None" = None) -> tuple[int, Any]:
        """One untimed request on the first connection: ``(status, decoded body)``."""
        connection = self.connections[0]
        connection.request(method, path, body=body, headers=_HEADERS)
        response = connection.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def run(
        self,
        scripts: Sequence[Script],
        *,
        seconds: "float | None" = None,
        counts: "Sequence[int] | None" = None,
    ) -> list[ConnectionResult]:
        """Drive connection ``i`` with ``scripts[i]`` until time or ``counts[i]`` runs out."""
        if len(scripts) > len(self.connections):
            raise RuntimeError(f"{len(scripts)} scripts for {len(self.connections)} connections")
        if len(scripts) > self.limit:
            raise RuntimeError(f"the generator may run at most {self.limit} threads")
        results = [ConnectionResult() for _ in scripts]
        deadline = None if seconds is None else time.perf_counter_ns() + int(seconds * 1e9)
        threads = [
            threading.Thread(
                target=self._loop,
                args=(i, script, results[i], deadline, None if counts is None else counts[i]),
                name=f"perfbench-loadgen-{i}",
            )
            for i, script in enumerate(scripts)
        ]
        for thread in threads:
            thread.start()
        with self._lock:
            self.peak_threads = max(self.peak_threads, len(threads))
        for thread in threads:
            thread.join()
        return results

    def _loop(
        self,
        index: int,
        script: Script,
        result: ConnectionResult,
        deadline: "int | None",
        count: "int | None",
    ) -> None:
        clock = time.perf_counter_ns
        result.start = clock()
        while True:
            built = clock()
            if (deadline is not None and built >= deadline) or (
                count is not None and len(result.samples) >= count
            ):
                break
            kind, method, path, body = script.next_request()
            sent = clock()
            connection = self.connections[index]
            try:
                connection.request(method, path, body=body, headers=_HEADERS)
                response = connection.getresponse()
                data = response.read()
                status: "int | None" = response.status
            except (OSError, http.client.HTTPException):
                status, data = None, b""
            received = clock()
            if status is None:
                self._reconnect(index)
            try:
                ok = script.on_response(kind, status, json.loads(data) if data else None)
            except (ValueError, KeyError, TypeError, IndexError):
                ok = False
            parsed = clock()
            result.samples.append((kind, received - sent, ok))
            result.requests.append((sent, received, kind))
            result.client.append((built, sent))
            result.client.append((received, parsed))
        result.end = clock()


def _lognormal(rng: Any, size: "int | None" = None) -> Any:
    """The paper's skill distribution: log-normal with µ = e, σ = √e.

    Drawn here rather than by ``repro`` so the inputs stay fixed when the
    program changes.
    """
    return rng.lognormal(mean=2.718281828459045, sigma=1.6487212707001282, size=size)


@dataclass
class Cohort:
    """One cohort a rounds script created, and everything served for it."""

    skills: list[float]
    mode: str
    seed: int
    id: "str | None" = None
    played: list[tuple[float, list[list[int]]]] = field(default_factory=list)
    final: "dict[str, Any] | None" = None


class RoundsScript:
    """``serve-rounds``: live cohorts advanced one round per request.

    Each slot's cohort goes create → ``rounds`` × ``POST …/rounds
    {"rounds": 1}`` → ``GET`` → ``DELETE``; every visit to a slot sends one
    request and visits go round-robin over the slots.  Created cohorts
    alternate star and clique and draw fresh skills, so the grouping memo
    sees (almost) no repeats.
    """

    def __init__(self, rng: Any, *, slots: int, rounds: int, n: int, k: int) -> None:
        self._rng = rng
        self._rounds = rounds
        self._n = n
        self._k = k
        self._slots: list["Cohort | None"] = [None] * slots
        self._cursor = 0
        self._created = 0
        self._pending = Cohort([], "star", 0)
        self.cohorts: list[Cohort] = []

    def next_request(self) -> "tuple[str, str, str, bytes | None]":
        cohort = self._slots[self._cursor]
        if cohort is None or cohort.id is None:
            cohort = Cohort(
                skills=[float(s) for s in _lognormal(self._rng, self._n)],
                mode=("star", "clique")[self._created % 2],
                seed=int(self._rng.integers(0, 2**31 - 1)),
            )
            self._slots[self._cursor] = self._pending = cohort
            body = {
                "skills": cohort.skills,
                "k": self._k,
                "mode": cohort.mode,
                "policy": "dygroups",
                "seed": cohort.seed,
            }
            return "create", "POST", "/v1/cohorts", json.dumps(body).encode()
        self._pending = cohort
        if len(cohort.played) < self._rounds:
            return "round", "POST", f"/v1/cohorts/{cohort.id}/rounds", b'{"rounds": 1}'
        if cohort.final is None:
            return "get", "GET", f"/v1/cohorts/{cohort.id}", None
        return "delete", "DELETE", f"/v1/cohorts/{cohort.id}", None

    def on_response(self, kind: str, status: "int | None", payload: Any) -> bool:
        cohort = self._pending
        slot = self._cursor
        self._cursor = (self._cursor + 1) % len(self._slots)
        if kind == "create":
            if status != 201:
                self._slots[slot] = None
                return False
            cohort.id = payload["cohort"]
            self._created += 1
            self.cohorts.append(cohort)
            return True
        if status != 200:
            return False
        if kind == "round":
            record = payload["played"][0]
            cohort.played.append((record["gain"], record["groups"]))
        elif kind == "get":
            cohort.final = payload
        else:
            self._slots[slot] = None
        return True


class JoinScript:
    """``serve-join``: streaming admission with status reads beside the joins.

    Joins alternate between ``specs``; after each join the connection reads
    the status of the participant it admitted ``lag`` joins earlier.
    Participant ids are chosen here, so checks can match them to cohorts.
    """

    def __init__(self, rng: Any, *, connection: int, specs: Sequence[str], lag: int) -> None:
        self._rng = rng
        self._prefix = f"w{connection}-"
        self._specs = tuple(specs)
        self._lag = lag
        self._status_next = False
        self._pending: "str | None" = None
        #: ``(participant, spec, skill)`` in this connection's admission order.
        self.joined: list[tuple[str, str, float]] = []
        #: Latest ``(status, cohort, member)`` reported for each participant.
        self.reports: dict[str, tuple[str, "str | None", "int | None"]] = {}

    def next_request(self) -> "tuple[str, str, str, bytes | None]":
        if self._status_next:
            participant = self.joined[len(self.joined) - 1 - self._lag][0]
            self._pending = participant
            return "status", "GET", f"/v1/participants/{participant}", None
        index = len(self.joined)
        participant = f"{self._prefix}{index:06d}"
        spec = self._specs[index % len(self._specs)]
        skill = float(_lognormal(self._rng))
        self._pending = participant
        self.joined.append((participant, spec, skill))
        body = {"skill": skill, "spec": spec, "participant": participant}
        return "join", "POST", "/v1/join", json.dumps(body).encode()

    def on_response(self, kind: str, status: "int | None", payload: Any) -> bool:
        expected = 202 if kind == "join" else 200
        if status != expected and kind == "join":
            self.joined.pop()
        self._status_next = kind == "join" and len(self.joined) > self._lag
        if status != expected:
            return False
        self.reports[payload["participant"]] = (
            payload["status"],
            payload.get("cohort"),
            payload.get("member"),
        )
        return payload["participant"] == self._pending
