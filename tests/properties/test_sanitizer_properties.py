"""Property-based test: the lock sanitizer is observationally free.

Over randomized served workloads (create → advance → describe), running
with ``REPRO_SANITIZE`` on must be *bit-identical* to running with it
off — same groupings, same round trajectories, same metrics snapshot
(modulo the ``sanitizer.*`` instruments the on-leg itself registers).
The sanitizer only wraps lock acquisition; it must never touch the
numbers.
"""

from __future__ import annotations

from datetime import datetime
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import sanitizer
from repro.obs import runtime
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService


@st.composite
def served_workloads(draw, max_cohorts: int = 3, max_k: int = 3, max_group_size: int = 4):
    """Random (cohort payloads, rounds) for a single-service run."""
    cohorts = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_cohorts))):
        k = draw(st.integers(min_value=1, max_value=max_k))
        size = draw(st.integers(min_value=2, max_value=max_group_size))
        n = k * size
        skills = draw(
            st.lists(
                st.floats(
                    min_value=0.01, max_value=50.0, allow_nan=False, allow_infinity=False
                ),
                min_size=n,
                max_size=n,
            )
        )
        cohorts.append(
            {
                "skills": skills,
                "k": k,
                "mode": draw(st.sampled_from(["star", "clique"])),
                "seed": draw(st.integers(min_value=0, max_value=2**31 - 1)),
                "rounds": draw(st.integers(min_value=1, max_value=4)),
            }
        )
    return cohorts


class _FrozenWallClock(datetime):
    """A ``datetime`` whose ``now`` stands still.

    ``created_utc`` is stamped to the second, so two runs of one workload
    would otherwise disagree whenever a second boundary falls between them.
    """

    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 1, tzinfo=tz)


def _run_workload(cohorts) -> tuple[list, dict]:
    """One full service run; returns (observable outputs, metrics snapshot)."""
    runtime.shutdown()
    runtime.metrics_registry().reset()
    outputs = []
    # A frozen display clock: the only nondeterminism left would be
    # whatever instrumentation injects, which is exactly what's under test.
    with (
        mock.patch("repro.serve.sessions.datetime", _FrozenWallClock),
        GroupingService(ServeConfig()) as service,
    ):
        for spec in cohorts:
            payload = {k: spec[k] for k in ("skills", "k", "mode", "seed")}
            created = service.create_cohort(payload)
            outputs.append(created)
            advanced = service.advance_rounds(created["cohort"], spec["rounds"])
            outputs.append(advanced)
            outputs.append(service.get_cohort(created["cohort"], include_history=True))
        snapshot = service.metrics_snapshot()
    runtime.metrics_registry().reset()
    return outputs, snapshot


def _sanitizer_series(snapshot: dict) -> list:
    return [name for series in snapshot.values() for name in series if name.startswith("sanitizer.")]


def _strip_sanitizer_keys(snapshot: dict) -> dict:
    return {
        kind: {name: v for name, v in series.items() if not name.startswith("sanitizer.")}
        for kind, series in snapshot.items()
    }


def _strip_timing_keys(snapshot: dict) -> dict:
    # Timers record wall-clock latencies; those legitimately differ
    # between runs, so only their counts are compared. Bit-identity is
    # claimed for everything else.
    timers = {name: series["count"] for name, series in snapshot["timers"].items()}
    return {**snapshot, "timers": timers}


def _comparable(snapshot: dict) -> dict:
    return _strip_timing_keys(_strip_sanitizer_keys(snapshot))


@given(cohorts=served_workloads())
@settings(max_examples=25, deadline=None)
def test_sanitizer_on_equals_off_bit_identical(cohorts):
    sanitizer.reset()
    with sanitizer.sanitize_scope(False):
        plain_outputs, plain_snapshot = _run_workload(cohorts)
    with sanitizer.sanitize_scope(True):
        sanitized_outputs, sanitized_snapshot = _run_workload(cohorts)
    assert sanitizer.reports() == ()
    # Plain == on the nested payloads: floats must match bit for bit.
    assert plain_outputs == sanitized_outputs
    assert _comparable(plain_snapshot) == _comparable(sanitized_snapshot)
    # The off-leg must not have registered any sanitizer instruments.
    assert _sanitizer_series(plain_snapshot) == []


@given(cohorts=served_workloads())
@settings(max_examples=10, deadline=None)
def test_sanitized_serving_is_deterministic_across_runs(cohorts):
    """Two sanitized runs of the same workload agree with each other."""
    with sanitizer.sanitize_scope(True):
        sanitizer.reset()
        first_outputs, first_snapshot = _run_workload(cohorts)
        second_outputs, second_snapshot = _run_workload(cohorts)
    assert sanitizer.reports() == ()
    assert first_outputs == second_outputs
    assert _comparable(first_snapshot) == _comparable(second_snapshot)
