"""Integration tests for the HTTP front-end, over a real ephemeral socket."""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro.baselines.registry import make_policy
from repro.core.simulation import simulate
from repro.obs import runtime
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
    service = GroupingService(ServeConfig(workers=2, cache_size=128))
    http_server = start_server(service, port=0)
    yield http_server
    http_server.close()


@pytest.fixture
def client(server):
    return HttpClient(server.url, timeout=30.0)


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
        assert health["workers"] == 2
        assert "cache" in health

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

    def test_request_is_counted_before_its_response_is_written(self, server, client):
        client.healthz()
        seen: list = []

        class Probe(server.RequestHandlerClass):
            def setup(self) -> None:
                super().setup()
                self.wfile = _CountingWriter(self.wfile, seen)

        server.RequestHandlerClass = Probe
        client.healthz()
        # The header block and the body each leave after the second
        # request is already in the timer and the status counter.
        assert seen == [(2, 2), (2, 2)]

    def test_metrics_exposes_gauges(self, client):
        info = client.create_cohort([1.0, 2.0, 3.0, 4.0], 2)
        client.advance_rounds(info["cohort"], 1)
        snapshot = client.metrics()
        gauges = snapshot["gauges"]
        assert gauges["serve.sessions.active"]["value"] == 1
        # A lone round step never touches the queue: the adaptive
        # scheduler answers it through the inline kernel fall-through.
        assert gauges["serve.scheduler.queue_depth"]["value"] == 0
        counters = snapshot["counters"]
        assert counters["serve.scheduler.step_inline_fallthrough"]["value"] >= 1

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
            ServeConfig(workers=0, session_ttl=5.0), clock=lambda: clock_box["now"]
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


class TestShutdown:
    def test_close_stops_accepting(self, server, client):
        client.healthz()
        server.close()
        from repro.serve.errors import ServeError

        with pytest.raises(ServeError):
            HttpClient(server.url, timeout=2.0).healthz()
