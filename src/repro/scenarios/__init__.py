"""repro.scenarios — declarative workloads, open-loop load, SLO verdicts.

The repo has 15 policies, 7 extensions, and 3 execution paths (the
in-process client, the HTTP API, the CLI); this package is the unified
way to declare "a workload" and run it everywhere:

* **spec** (:mod:`repro.scenarios.spec`) — a JSON-round-trippable
  :class:`ScenarioSpec`: arrival pattern (closed-loop, Poisson, burst),
  population model, policy, round count, and SLO targets, plus a small
  built-in catalog (``smoke``, ``fig05b-rate``, ``streaming-smoke``);
* **loadgen** (:mod:`repro.scenarios.loadgen`) — a deterministic
  open-loop load generator: seeded arrival schedules precomputed up
  front, latencies measured from the *intended* send time so queueing
  delay is never hidden (coordinated-omission-safe);
* **slo** (:mod:`repro.scenarios.slo`) — the verdict engine evaluating
  SLO targets against a metrics-registry snapshot; verdicts surface in
  the JSON artifacts and in serve's ``GET /metrics``;
* **harness** (:mod:`repro.scenarios.harness`) — the paradigm-comparison
  runner driving one scenario through all three execution paths,
  asserting cross-paradigm bit-identity of the produced groupings, and
  emitting one comparison table plus a ``BENCH_scenario_<name>.json``
  artifact.

``harness`` is imported lazily: it depends on :mod:`repro.serve`, which
itself consults :mod:`repro.scenarios.spec`/``slo`` for its ``/metrics``
SLO block — eager package-level imports in both directions would cycle.
"""

from repro.scenarios.loadgen import ArrivalSchedule, LoadResult, run_load
from repro.scenarios.slo import SLOReport, SLOVerdict, evaluate_slos, slo_prometheus_lines
from repro.scenarios.spec import (
    ARRIVAL_KINDS,
    CATALOG,
    ArrivalSpec,
    PopulationSpec,
    ScenarioSpec,
    SLOSpec,
    load_scenario,
)

__all__ = [
    "ARRIVAL_KINDS",
    "CATALOG",
    "ArrivalSchedule",
    "ArrivalSpec",
    "LoadResult",
    "PopulationSpec",
    "SLOReport",
    "SLOSpec",
    "SLOVerdict",
    "ScenarioSpec",
    "compare_scenario",  # noqa: DYG301 — provided lazily by __getattr__
    "evaluate_slos",
    "load_scenario",
    "run_load",
    "run_paradigm",  # noqa: DYG301 — provided lazily by __getattr__
    "slo_prometheus_lines",
    "write_scenario_artifact",  # noqa: DYG301 — provided lazily by __getattr__
]

_LAZY_HARNESS = {"compare_scenario", "run_paradigm", "write_scenario_artifact"}


def __getattr__(name: str):
    if name in _LAZY_HARNESS:
        from repro.scenarios import harness

        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
