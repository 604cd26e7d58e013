"""Integration tests for the HTTP front-end, over a real ephemeral socket."""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.baselines.registry import make_policy
from repro.core.simulation import simulate
from repro.obs import runtime
from repro.serve import http as serve_http
from repro.serve import (
    CohortNotFound,
    GroupingService,
    HttpClient,
    InvalidRequest,
    ServeConfig,
    SessionExpired,
    start_server,
)


@pytest.fixture
def server():
    service = GroupingService(ServeConfig(cache_size=128))
    http_server = start_server(service, port=0)
    yield http_server
    http_server.close()


@pytest.fixture
def client(server):
    return HttpClient(server.url, timeout=30.0)


def _raw_post(server, length: "str | None", body: bytes) -> "tuple[int, dict, str | None]":
    """POST a hand-framed body on a keep-alive socket the client never half-closes.

    ``length`` is the literal ``Content-Length`` value (``None`` sends
    ``len(body)``).  A server waiting for more body bytes times the read
    out after 2 s instead of answering.  Returns the status, the decoded
    body and the ``Connection`` header.
    """
    header = str(len(body)) if length is None else length
    head = (
        f"POST /v1/cohorts HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {header}\r\n\r\n"
    )
    with socket.create_connection(server.server_address[:2], timeout=2.0) as sock:
        sock.sendall(head.encode("latin-1") + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read()), response.getheader("Connection")


def _exchange(server, data: bytes) -> "tuple[int, str | None, bytes, bool]":
    """Send raw request bytes on a fresh socket; read one response.

    Returns the status, the ``Content-Type``, the body and whether the
    server closed the connection after the response.
    """
    with socket.create_connection(server.server_address[:2], timeout=3.0) as sock:
        sock.sendall(data)
        response = http.client.HTTPResponse(sock)
        response.begin()
        body = response.read()
        try:
            closed = sock.recv(1) == b""
        except ConnectionResetError:
            closed = True
        except TimeoutError:
            closed = False
        return response.status, response.getheader("Content-Type"), body, closed


def _recording_handler(server, threads: list) -> None:
    """Make ``server`` note each connection's handler thread in ``threads``."""

    class Probe(server.RequestHandlerClass):
        def setup(self) -> None:
            threads.append(threading.current_thread())
            super().setup()

    server.RequestHandlerClass = Probe


class _CountingWriter:
    """A handler's ``wfile`` that notes the request metrics at every write."""

    def __init__(self, raw, seen: list) -> None:
        self._raw = raw
        self._seen = seen

    def write(self, data: bytes) -> int:
        snapshot = runtime.metrics_registry().snapshot()
        self._seen.append(
            (
                snapshot["timers"]["serve.http.request_seconds"]["count"],
                snapshot["counters"]["serve.http.status.2xx"]["value"],
            )
        )
        return self._raw.write(data)

    def __getattr__(self, name: str):
        return getattr(self._raw, name)


class TestEndToEnd:
    def test_server_trajectory_bit_identical_to_offline(self, client):
        """Acceptance: n=120, k=10, star, alpha=8 over real HTTP == simulate()."""
        skills = np.random.default_rng(42).uniform(1.0, 10.0, size=120)
        info = client.create_cohort(skills.tolist(), 10, mode="star", rate=0.5, seed=7)
        result = client.advance_rounds(info["cohort"], 8)
        final = np.array(client.get_cohort(info["cohort"])["skills"])

        reference = simulate(
            make_policy("dygroups", mode="star", rate=0.5),
            skills, k=10, alpha=8, mode="star", rate=0.5, seed=7,
        )
        assert result["rounds"] == 8
        assert np.array_equal(final, reference.final_skills)
        assert result["total_gain"] == float(np.sum(reference.round_gains))
        assert [r["gain"] for r in result["played"]] == [float(g) for g in reference.round_gains]

    def test_clique_cohort_round_trip(self, client):
        skills = list(np.random.default_rng(8).uniform(1.0, 9.0, size=12))
        info = client.create_cohort(skills, 4, mode="clique", seed=2)
        result = client.advance_rounds(info["cohort"], 3)
        assert result["rounds"] == 3
        assert client.delete_cohort(info["cohort"])["rounds"] == 3

    def test_history_round_trips_when_recorded(self, client):
        skills = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        info = client.create_cohort(skills, 2, record_history=True)
        client.advance_rounds(info["cohort"], 2)
        payload = client.get_cohort(info["cohort"])
        assert len(payload["skill_history"]) == 3
        assert payload["skill_history"][0] == skills


class TestOperationalEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert set(health) == {"status", "uptime_seconds", "cohorts", "cache"}

    def test_metrics_exposes_cache_and_http_counters(self, client):
        skills = [1.0, 2.0, 3.0, 4.0]
        info = client.create_cohort(skills, 2)
        client.advance_rounds(info["cohort"], 2)
        client.advance_rounds(info["cohort"], 1)
        snapshot = client.metrics()
        counters = snapshot["counters"]
        assert counters["serve.http.requests"]["value"] >= 3
        assert counters["serve.rounds.advanced"]["value"] == 3
        assert "serve.cache.hits" in counters or "serve.cache.misses" in counters
        assert snapshot["timers"]["serve.http.request_seconds"]["count"] >= 3
        assert snapshot["timers"]["serve.scheduler.kernel_seconds"]["count"] == 2

    def test_request_is_counted_before_its_response_is_written(self, server, client):
        client.healthz()
        seen: list = []

        class Probe(server.RequestHandlerClass):
            def setup(self) -> None:
                super().setup()
                self.wfile = _CountingWriter(self.wfile, seen)

        server.RequestHandlerClass = Probe
        client.healthz()
        # The response leaves in one write (head and body together: a
        # second write would wait for the client's delayed ACK), after the
        # second request is already in the timer and the status counter.
        assert seen == [(2, 2)]

    def test_metrics_exposes_gauges(self, client):
        info = client.create_cohort([1.0, 2.0, 3.0, 4.0], 2)
        client.advance_rounds(info["cohort"], 1)
        snapshot = client.metrics()
        gauges = snapshot["gauges"]
        assert gauges["serve.sessions.active"]["value"] == 1
        # The advance ran through the one round path, timed once.
        assert snapshot["timers"]["serve.scheduler.kernel_seconds"]["count"] == 1

    def test_metrics_prometheus_format(self, server, client):
        info = client.create_cohort([1.0, 2.0, 3.0, 4.0], 2)
        client.advance_rounds(info["cohort"], 1)
        with urllib.request.urlopen(server.url + "/metrics?format=prometheus") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
        lines = text.splitlines()
        assert "# TYPE repro_serve_http_requests counter" in lines
        assert "# TYPE repro_serve_sessions_active gauge" in lines
        assert "# TYPE repro_serve_http_request_seconds summary" in lines
        assert any(
            line.startswith('repro_serve_http_request_seconds{quantile="0.99"}')
            for line in lines
        )

    def test_metrics_unknown_format_is_400(self, server):
        with pytest.raises(urllib.request.HTTPError) as excinfo:
            urllib.request.urlopen(server.url + "/metrics?format=xml")
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_request_histogram_retention_is_bounded(self, client):
        """Regression: a long-lived server must not retain unbounded
        per-request latency samples."""
        from repro.obs import runtime
        from repro.serve.config import REQUEST_HISTOGRAM_KEEP

        client.healthz()
        timer = runtime.metrics_registry().timer("serve.http.request_seconds")
        assert timer.keep == REQUEST_HISTOGRAM_KEEP


class TestErrorEnvelopes:
    def test_unknown_cohort_is_typed_404(self, client):
        with pytest.raises(CohortNotFound) as excinfo:
            client.get_cohort("c999999")
        assert excinfo.value.status == 404

    def test_validation_error_is_typed_400(self, client):
        with pytest.raises(InvalidRequest):
            client.create_cohort([1.0, 2.0, 3.0], 2)  # 3 % 2 != 0

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/cohorts",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read())
        assert envelope["error"]["code"] == "invalid_request"

    def test_unroutable_path_is_404_envelope(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v2/nothing", timeout=10.0)
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, server, client):
        # POST on the cohort resource itself (not .../rounds) is not a route.
        info = client.create_cohort([1.0, 2.0], 1)
        request = urllib.request.Request(
            f"{server.url}/v1/cohorts/{info['cohort']}", data=b"{}", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 405
        assert json.loads(excinfo.value.read())["error"]["code"] == "method_not_allowed"

    def test_expired_session_is_410_over_http(self):
        clock_box = {"now": 0.0}
        service = GroupingService(
            ServeConfig(session_ttl=5.0), clock=lambda: clock_box["now"]
        )
        server = start_server(service, port=0)
        try:
            client = HttpClient(server.url)
            info = client.create_cohort([1.0, 2.0], 1)
            clock_box["now"] = 6.0
            with pytest.raises(SessionExpired) as excinfo:
                client.get_cohort(info["cohort"])
            assert excinfo.value.status == 410
        finally:
            server.close()


class TestRequestFraming:
    """Malformed framing is a typed 400 at once, never a 500 or a stall."""

    @pytest.mark.parametrize(
        "length,body,closes",
        [
            ("abc", b"{}", True),
            ("-5", b"{}", True),
            ("-1", b'{"skills": [1.0, 2.0], "k": 1}', True),
            ("9" * 5000, b"{}", True),
            ("33554433", b"{}", True),
            (None, b"[" * 200_000, False),
            (None, b"\x80{}", False),
        ],
        ids=[
            "non-numeric", "negative", "minus-one", "5000-digits", "too-large",
            "deep-nesting", "not-utf8",
        ],
    )
    def test_malformed_body_is_400(self, server, length, body, closes):
        status, envelope, connection = _raw_post(server, length, body)
        assert status == 400
        assert envelope["error"]["code"] == "invalid_request"
        # An unread body leaves no next-request boundary on the stream.
        assert connection == ("close" if closes else None)

    def test_well_framed_body_still_keeps_the_connection(self, server):
        body = json.dumps({"skills": [1.0, 2.0], "k": 1}).encode()
        with socket.create_connection(server.server_address[:2], timeout=2.0) as sock:
            for _ in range(2):
                sock.sendall(
                    b"POST /v1/cohorts HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == 201
                assert response.getheader("Connection") is None
                response.read()


#: Head limits the stdlib parser also enforced: (raw request, status, envelope code).
_HEAD_LIMITS = [
    pytest.param(
        b"GET /" + b"a" * 65_600 + b" HTTP/1.1\r\n\r\n",
        414,
        "uri_too_long",
        id="request-line-over-64KiB",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 65_600 + b"\r\n\r\n",
        431,
        "header_fields_too_large",
        id="header-line-over-64KiB",
    ),
    pytest.param(
        b"GET /healthz HTTP/1.1\r\n" + b"".join(b"X-H%d: v\r\n" % i for i in range(101)) + b"\r\n",
        431,
        "header_fields_too_large",
        id="101-headers",
    ),
]

_COHORT_BODY = b'{"skills": [1.0, 2.0], "k": 1}'  # 30 bytes

#: Requests the stdlib server misread.  It answered a bad request line
#: with a bare HTML page and no status line (as if to HTTP/0.9), treated
#: a chunked body as empty and then parsed the chunks as a request, and
#: read only the first of two Content-Length values.
_REFUSALS = [
    pytest.param(b"GET /healthz HTTP/2.0\r\n\r\n", 505, "http_version_not_supported", id="http-2.0"),
    pytest.param(b"NONSENSE\r\n\r\n", 400, "invalid_request", id="one-word-request-line"),
    pytest.param(b"GET /healthz HTTP/one\r\n\r\n", 400, "invalid_request", id="malformed-version"),
    pytest.param(
        b"POST /v1/cohorts HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        + b"1e\r\n" + _COHORT_BODY + b"\r\n0\r\n\r\n",
        501,
        "not_implemented",
        id="transfer-encoding-chunked",
    ),
    pytest.param(
        b"POST /v1/cohorts HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 30\r\n\r\n"
        + _COHORT_BODY,
        400,
        "invalid_request",
        id="two-content-lengths",
    ),
    pytest.param(b"PATCH /healthz HTTP/1.1\r\n\r\n", 501, "not_implemented", id="no-such-method"),
]


class TestHeadParity:
    """What the stdlib head parser did, the handler still does."""

    @pytest.mark.parametrize("data,status,code", _HEAD_LIMITS)
    def test_head_limit_answers_then_closes(self, server, data, status, code):
        answered, _, _, closed = _exchange(server, data)
        assert answered == status
        assert closed

    @pytest.mark.parametrize(
        "data",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        ],
        ids=["http-1.0", "connection-close"],
    )
    def test_connection_closes_after_the_response(self, server, data):
        status, _, _, closed = _exchange(server, data)
        assert status == 200
        assert closed

    def test_http_1_0_keep_alive_stays_open(self, server):
        with socket.create_connection(server.server_address[:2], timeout=3.0) as sock:
            for _ in range(2):
                sock.sendall(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == 200
                response.read()

    def test_expect_100_continue_is_answered_before_the_body(self, server):
        head = (
            b"POST /v1/cohorts HTTP/1.1\r\nHost: 127.0.0.1\r\nExpect: 100-continue\r\n"
            + b"Content-Length: %d\r\n\r\n" % len(_COHORT_BODY)
        )
        with socket.create_connection(server.server_address[:2], timeout=3.0) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, f"closed before 100 Continue, after {interim!r}"
                interim += chunk
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(_COHORT_BODY)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 201
            assert json.loads(response.read())["n"] == 2


class TestTransport:
    def test_keep_alive_round_trip_is_not_delayed(self, server, client):
        """A response split over two writes waits ≥ 40 ms for a delayed ACK."""
        info = client.create_cohort(list(np.linspace(1.0, 9.0, 120)), 10, seed=3)
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10.0)
        try:
            elapsed = []
            for _ in range(20):
                start = time.perf_counter()
                connection.request(
                    "POST", f"/v1/cohorts/{info['cohort']}/rounds", body=b'{"rounds": 1}'
                )
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.020, elapsed

    def test_accepted_socket_sets_tcp_nodelay(self, server, client):
        seen: list = []

        class Probe(server.RequestHandlerClass):
            def setup(self) -> None:
                super().setup()
                seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

        server.RequestHandlerClass = Probe
        client.healthz()
        assert len(seen) == 1 and seen[0] != 0

    @pytest.mark.parametrize("data,status,code", _HEAD_LIMITS + _REFUSALS)
    def test_refusal_is_a_json_envelope_then_closes(self, server, data, status, code):
        answered, content_type, body, closed = _exchange(server, data)
        assert (answered, content_type) == (status, "application/json")
        assert json.loads(body)["error"]["code"] == code
        assert closed

    def test_body_no_route_reads_closes_the_connection(self, server):
        # The unread body would otherwise be parsed as the next request.
        status, _, _, closed = _exchange(
            server, b"GET /healthz HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        )
        assert status == 200
        assert closed

    def test_serving_imports_no_http_client_stack(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        code = (
            "import sys\n"
            "import repro.cli, repro.serve.http, repro.matchmaking.matchmaker\n"
            "banned = ('http.server', 'http.client', 'ssl', 'urllib.request', 'email.parser')\n"
            "print(sorted(name for name in banned if name in sys.modules))\n"
        )
        output = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(src)),
            check=True,
        ).stdout
        assert output.strip() == "[]"

    def test_stalled_body_read_times_out(self, server, monkeypatch):
        monkeypatch.setattr(serve_http, "READ_TIMEOUT_SECONDS", 0.5, raising=False)
        threads: list = []
        _recording_handler(server, threads)
        with socket.create_connection(server.server_address[:2], timeout=3.0) as sock:
            sock.sendall(b"POST /v1/cohorts HTTP/1.1\r\nContent-Length: 100\r\n\r\n{}")
            assert sock.recv(1) == b""  # EOF, no response
        threads[0].join(timeout=3.0)
        assert not threads[0].is_alive()

    def test_client_that_leaves_early_is_not_an_error(self, server, monkeypatch):
        errors: list = []
        monkeypatch.setattr(
            serve_http.GroupingHTTPServer,
            "handle_error",
            lambda self, request, address: errors.append(address),
        )
        threads: list = []
        _recording_handler(server, threads)
        request = b"POST /v1/cohorts HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        for data in [request % 100 + b"{}"] * 5 + [request % len(_COHORT_BODY) + _COHORT_BODY]:
            with socket.create_connection(server.server_address[:2], timeout=3.0) as sock:
                sock.sendall(data)
        deadline = time.monotonic() + 5.0
        while len(threads) < 6 and time.monotonic() < deadline:
            time.sleep(0.01)
        for thread in threads:
            thread.join(timeout=5.0)
        assert len(threads) == 6 and not any(thread.is_alive() for thread in threads)
        assert errors == []


_FINALIZER_SIGTERM = """
import os
import signal
import sys

from repro.serve import http
from repro.serve.config import ServeConfig


class _SignalsWhenCollected:
    def __del__(self):
        os.kill(os.getpid(), signal.SIGTERM)


class _Server(http.GroupingHTTPServer):
    signalled = False

    def service_actions(self):
        # Drop an object whose finalizer signals this process, so the
        # SIGTERM handler runs inside __del__.
        if not _Server.signalled:
            _Server.signalled = True
            _SignalsWhenCollected()


http.GroupingHTTPServer = _Server
sys.exit(http.run_server(ServeConfig(port=0)))
"""


class TestShutdown:
    def test_sigterm_inside_a_finalizer_still_stops_the_server(self):
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-c", _FINALIZER_SIGTERM],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        try:
            output = proc.communicate(timeout=5.0)[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "shutting down" in output

    def test_close_stops_accepting(self, server, client):
        client.healthz()
        server.close()
        from repro.serve.errors import ServeError

        with pytest.raises(ServeError):
            HttpClient(server.url, timeout=2.0).healthz()
