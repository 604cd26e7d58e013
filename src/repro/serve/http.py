"""Stdlib HTTP front-end for the grouping service.

A :class:`GroupingHTTPServer` is a ``ThreadingHTTPServer`` whose handler
routes a small JSON API onto one :class:`~repro.serve.service.GroupingService`:

========  ==============================  =======================================
method    path                            operation
========  ==============================  =======================================
POST      ``/v1/cohorts``                 create a cohort (skills, k, mode, ...)
GET       ``/v1/cohorts/{id}``            inspect a cohort and its trajectory
POST      ``/v1/cohorts/{id}/rounds``     advance rounds (body ``{"rounds": m}``)
DELETE    ``/v1/cohorts/{id}``            remove a cohort
POST      ``/v1/join``                    join the matchmaking queue (202)
GET       ``/v1/participants/{id}``       participant status (waiting/matched/…)
DELETE    ``/v1/participants/{id}``       leave the matchmaking queue
GET       ``/v1/matchmaking``             queue depths, specs, condensed cohorts
GET       ``/healthz``                    liveness + cache stats
GET       ``/metrics``                    metrics-registry snapshot (JSON)
GET       ``/metrics?format=prometheus``  same registry, Prometheus text format
========  ==============================  =======================================

The ``/v1/join`` family requires ``dygroups serve --matchmaking``
(``ServeConfig.matchmaking``); without it those routes answer ``404
matchmaking_disabled``.  A successful join responds ``202 Accepted`` —
the participant is queued, not yet grouped — unless the join itself
condensed a full cohort, in which case the body already reports
``matched`` (still 202: the resource to poll is the participant).

When the service was configured with SLO targets (``ServeConfig.slo``),
both ``/metrics`` formats carry the verdict block next to the raw
series.

Failures are structured envelopes —
``{"error": {"code": "...", "message": "..."}}`` — with the status from
the :mod:`repro.serve.errors` taxonomy (400 validation, 404 unknown id,
410 expired session, 429 cohort capacity).  A body must come with a
non-negative decimal ``Content-Length``; anything else, or JSON that
will not parse, is a 400.  Every request is traced (``serve.http``
span), counted (``serve.http.*`` metrics), and journaled
(``http_request`` events) when observability is on.  Shutdown is
graceful: ``close()`` stops the accept loop and drops the sessions.

``src/repro/serve/`` is on the DYG103 allowlist: request timing and TTL
bookkeeping legitimately read clocks; nothing here feeds results.
"""

from __future__ import annotations

import _thread
import json
import logging
import re
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs

from repro.obs import runtime as _obs
from repro.obs import trace as _trace
from repro.serve.config import MAX_BODY_BYTES, REQUEST_HISTOGRAM_KEEP, ServeConfig
from repro.serve.errors import InvalidRequest, ServeError
from repro.serve.service import GroupingService

__all__ = ["GroupingHTTPServer", "start_server", "run_server"]

_log = logging.getLogger("repro.serve.http")

_COHORT_PATH = re.compile(r"^/v1/cohorts/(?P<id>[A-Za-z0-9_.-]+)$")
_ROUNDS_PATH = re.compile(r"^/v1/cohorts/(?P<id>[A-Za-z0-9_.-]+)/rounds$")
_PARTICIPANT_PATH = re.compile(r"^/v1/participants/(?P<id>[A-Za-z0-9_.-]+)$")
#: The only accepted ``Content-Length`` form.  ``int()`` alone would take
#: ``-1``, and ``rfile.read(-1)`` reads until the client closes; it also
#: refuses strings of over 4,300 digits with a ``ValueError``.
_CONTENT_LENGTH = re.compile(r"[0-9]{1,18}")


class _Handler(BaseHTTPRequestHandler):
    """Routes the JSON API; one instance per request (threaded server)."""

    server_version = "dygroups-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> GroupingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        _log.debug("%s - %s", self.address_string(), format % args)

    def _read_body(self) -> Any:
        header = (self.headers.get("Content-Length") or "0").strip()
        length = int(header) if _CONTENT_LENGTH.fullmatch(header) else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the stream has no next request
            # boundary: answer, then close the connection.
            self.close_connection = True
            raise InvalidRequest(
                f"Content-Length must be a decimal integer in [0, {MAX_BODY_BYTES}], "
                f"got {header!r}"
            )
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8/16/32
            raise InvalidRequest(f"request body is not valid JSON: {error}") from error
        except RecursionError:
            raise InvalidRequest("request body nests too deeply to decode") from None

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        """Stage a JSON response; :meth:`_handle` sends it once it is counted."""
        self._respond_text(status, json.dumps(payload), content_type="application/json")

    def _respond_text(self, status: int, text: str, *, content_type: str) -> None:
        """Stage a response; :meth:`_handle` sends it once it is counted."""
        self._status = status
        self._body = text.encode()
        self._content_type = content_type

    def _send(self) -> None:
        """Write the staged response: the header block, then the body."""
        self.send_response(self._status)
        self.send_header("Content-Type", self._content_type)
        self.send_header("Content-Length", str(len(self._body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(self._body)

    # -- request dispatch --------------------------------------------------

    def _handle(self, method: str) -> None:
        registry = _obs.metrics_registry()
        registry.counter("serve.http.requests").inc()
        timer = registry.timer("serve.http.request_seconds", keep=REQUEST_HISTOGRAM_KEEP)
        path, _, query = self.path.partition("?")
        self._query = parse_qs(query)
        try:
            with timer.time(), _trace.span("serve.http", method=method, path=path):
                self._route(method, path)
        except ServeError as error:
            self._respond(error.status, error.envelope())
        except Exception as error:
            _log.exception("unhandled error serving %s %s", method, path)
            self._respond(
                500, {"error": {"code": "internal_error", "message": str(error)}}
            )
        # Count the request before its response leaves: a client holding
        # the response must find it in the next /metrics snapshot.
        registry.counter(f"serve.http.status.{self._status // 100}xx").inc()
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit("http_request", method=method, path=path, status=self._status)
        self._send()

    def _route(self, method: str, path: str) -> None:
        if method == "GET" and path == "/healthz":
            self._respond(200, self.service.healthz())
            return
        if method == "GET" and path == "/metrics":
            format_ = (self._query.get("format") or ["json"])[-1]
            if format_ == "prometheus":
                self._respond_text(
                    200,
                    self.service.metrics_prometheus(),
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
                return
            if format_ != "json":
                raise InvalidRequest(
                    f"unknown metrics format {format_!r} (expected json or prometheus)"
                )
            self._respond(200, self.service.metrics_snapshot())
            return
        if method == "POST" and path == "/v1/cohorts":
            payload = self._read_body()
            self._respond(201, self.service.create_cohort(payload))
            return
        if method == "POST" and path == "/v1/join":
            payload = self._read_body()
            self._respond(202, self.service.join(payload))
            return
        if method == "GET" and path == "/v1/matchmaking":
            self._respond(200, self.service.matchmaking_snapshot())
            return
        participant_match = _PARTICIPANT_PATH.match(path)
        if participant_match is not None:
            participant_id = participant_match.group("id")
            if method == "GET":
                self._respond(200, self.service.participant_status(participant_id))
                return
            if method == "DELETE":
                self._respond(200, self.service.leave_queue(participant_id))
                return
            self._respond(
                405,
                {"error": {"code": "method_not_allowed", "message": f"{method} not allowed here"}},
            )
            return
        rounds_match = _ROUNDS_PATH.match(path)
        if rounds_match is not None and method == "POST":
            payload = self._read_body()
            if not isinstance(payload, dict):
                raise InvalidRequest("request body must be a JSON object")
            rounds = payload.get("rounds", 1)
            self._respond(200, self.service.advance_rounds(rounds_match.group("id"), rounds))
            return
        cohort_match = _COHORT_PATH.match(path)
        if cohort_match is not None:
            cohort_id = cohort_match.group("id")
            if method == "GET":
                self._respond(200, self.service.get_cohort(cohort_id, include_history=True))
                return
            if method == "DELETE":
                self._respond(200, self.service.delete_cohort(cohort_id))
                return
            self._respond(
                405,
                {"error": {"code": "method_not_allowed", "message": f"{method} not allowed here"}},
            )
            return
        self._respond(
            404, {"error": {"code": "not_found", "message": f"no route for {method} {path}"}}
        )

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")

    def do_DELETE(self) -> None:
        self._handle("DELETE")


class GroupingHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`GroupingService`.

    Request threads are daemonic so a hung client can never block
    shutdown; :meth:`close` stops the accept loop, closes the service
    (session drop), and releases the socket.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, service: GroupingService, host: str, port: int) -> None:
        super().__init__((host, port), _Handler)
        self.service = service

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0`` ephemeral binds)."""
        return int(self.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the bound server."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def close(self) -> None:
        """Graceful shutdown: stop accepting, close the service, release the socket."""
        self.shutdown()
        self.service.close()
        self.server_close()


def start_server(
    service: GroupingService, *, host: "str | None" = None, port: "int | None" = None
) -> GroupingHTTPServer:
    """Bind a :class:`GroupingHTTPServer` and serve it on a daemon thread.

    The returned server is already accepting requests; call
    :meth:`GroupingHTTPServer.close` to stop it.  Host/port default to
    the service's own :class:`~repro.serve.config.ServeConfig`.
    """
    config = service.config
    server = GroupingHTTPServer(
        service,
        config.host if host is None else host,
        config.port if port is None else port,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="dygroups-serve-accept", daemon=True
    )
    thread.start()
    return server


def _install_shutdown_signals(server: GroupingHTTPServer) -> None:
    """Make SIGTERM/SIGINT stop ``server.serve_forever`` for a graceful stop.

    Two cases need explicit handlers: service managers stop daemons with
    SIGTERM (which would otherwise kill the process mid-request), and a
    shell backgrounding ``dygroups serve &`` starts it with SIGINT set
    to SIG_IGN, so Python never installs its own handler and ``kill
    -INT`` would be silently discarded.

    The handler only requests the shutdown; it raises nothing.  Python
    runs it on the main thread wherever that thread is, and an exception
    raised inside a finalizer (``__del__``, a weakref callback) is printed
    and dropped, so a raising handler could lose the signal and leave the
    server serving.  ``server.shutdown()`` blocks until ``serve_forever``
    returns, so it runs on a thread of its own, started with ``_thread``:
    the main thread starts a ``threading.Thread`` per connection, and the
    handler may land while it holds the lock ``Thread.start`` takes.
    """

    def _graceful(signum: int, frame: Any) -> None:
        _thread.start_new_thread(server.shutdown, ())

    try:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    except ValueError:  # not the main thread (embedded use) — caller's job
        pass


def run_server(config: "ServeConfig | None" = None) -> int:
    """Blocking entry point behind ``dygroups serve``.

    Boots a service + server from ``config``, serves until interrupted
    (SIGINT/SIGTERM), then shuts down gracefully.  Returns a process
    exit code.
    """
    config = config if config is not None else ServeConfig()
    service = GroupingService(config)
    try:
        server = GroupingHTTPServer(service, config.host, config.port)
    except OSError as error:
        service.close()
        print(f"dygroups serve: cannot bind {config.host}:{config.port}: {error}")
        return 1
    _install_shutdown_signals(server)
    try:
        # A signal that lands before serve_forever starts still stops
        # it: shutdown() leaves its request set until the loop sees it.
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit("serve_start", host=config.host, port=server.port)
        print(f"dygroups serve: listening on {server.url} (ctrl-c to stop)", flush=True)
        _log.info("serving on %s", server.url)
        server.serve_forever()
        print("\ndygroups serve: shutting down")
    finally:
        # serve_forever already returned on shutdown(); avoid re-entry.
        server.service.close()
        server.server_close()
        state = _obs.state()
        if state is not None and state.journal is not None:
            state.journal.emit("serve_stop", port=server.port)
    return 0
