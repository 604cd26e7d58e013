"""Cross-paradigm scenario harness.

One :class:`~repro.scenarios.spec.ScenarioSpec` can be executed three
ways, all backed by the same round kernel:

* ``inprocess`` — an :class:`~repro.serve.client.InProcessClient` over a
  live :class:`~repro.serve.service.GroupingService` (no sockets, no
  serialization: measures the service itself);
* ``http`` — an :class:`~repro.serve.client.HttpClient` against a real
  :class:`~repro.serve.http.GroupingHTTPServer` on an ephemeral port
  (the full wire path);
* ``cli`` — one ``dygroups simulate`` subprocess per cohort, groupings
  read back from the ``--save`` trajectory JSON (the offline engine).

Scenarios with ``individual`` arrivals run through the serve paradigms
only (``inprocess``/``http``): participants join the matchmaking queue
one at a time, the condenser forms the cohorts, and the harness then
advances rounds on the condensed sessions.  Each condensed cohort is
additionally verified against an offline ``simulate()`` replay of its
recorded skills and seed, so the streaming admission path carries the
same bit-identity guarantee as direct cohort creation (see
docs/matchmaking.md).

:func:`compare_scenario` drives the same scenario through each paradigm
under the same seeded arrival schedule and asserts the produced
groupings are **bit-identical** — the serving layer's central
correctness claim, checked end to end.  A round-advance request that
fails records no round, so the identity check compares the rounds
*jointly played* in every paradigm; a scenario that played no
comparable round at all fails the check.

The harness owns the process-global metrics registry while it runs:
each paradigm starts from :meth:`MetricsRegistry.reset` so its
``scenario.*`` load-generator series and ``serve.*`` stage series
describe that paradigm alone.  Per-paradigm snapshots are kept on the
:class:`ParadigmRun`, judged against the scenario's SLO block, and
written into ``BENCH_scenario_<name>.json`` by
:func:`write_scenario_artifact`.

``src/repro/scenarios/`` is on the DYG103 allowlist: load generation
and latency accounting legitimately read clocks; nothing here feeds
grouping results.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.analysis import sanitizer as _sanitize
from repro.core.simulation import simulate
from repro.obs import runtime as _obs
from repro.obs.provenance import provenance_stamp
from repro.registry import build_policy
from repro.scenarios.loadgen import ArrivalSchedule, LoadResult, run_load
from repro.scenarios.slo import SLOReport, evaluate_slos
from repro.scenarios.spec import ScenarioSpec
from repro.serve.client import HttpClient, InProcessClient
from repro.serve.config import ServeConfig
from repro.serve.http import start_server
from repro.serve.service import GroupingService

__all__ = [
    "PARADIGMS",
    "ParadigmMismatch",
    "ParadigmRun",
    "ScenarioComparison",
    "compare_scenario",
    "run_paradigm",
    "write_scenario_artifact",
]

#: Execution paradigms the harness can drive, in default comparison order.
PARADIGMS = ("inprocess", "http", "cli")

#: Artifact schema version of ``BENCH_scenario_<name>.json``.
SCENARIO_ARTIFACT_SCHEMA = 1

#: Serve-side stage series included in artifacts (absent for ``cli``,
#: whose work happens in child processes).
_STAGE_SERIES = {
    "kernel_step": "serve.scheduler.kernel_seconds",
    "http_request": "serve.http.request_seconds",
}


class ParadigmMismatch(AssertionError):
    """Two paradigms produced different groupings for the same scenario."""


# Groupings canonical form: cohort index → {round index → grouping},
# where a grouping is a tuple of tuples of member indices.
Groupings = "dict[int, dict[int, tuple[tuple[int, ...], ...]]]"


def _canonical_grouping(groups: Sequence[Sequence[int]]) -> tuple:
    return tuple(tuple(int(member) for member in group) for group in groups)


@dataclass(frozen=True)
class ParadigmRun:
    """One paradigm's execution of a scenario.

    Attributes:
        paradigm: ``"inprocess"``, ``"http"``, or ``"cli"``.
        groupings: canonical per-cohort, per-round groupings actually
            played (rounds whose request failed are simply absent).
        load: the load generator's totals.
        snapshot: the metrics-registry snapshot taken right after the
            run — ``scenario.*`` client-side series plus, for the serve
            paradigms, the ``serve.*`` stage series.
    """

    paradigm: str
    groupings: dict[int, dict[int, tuple]]
    load: LoadResult
    snapshot: Mapping[str, Any]

    @property
    def rounds_played(self) -> int:
        """Total rounds that produced a grouping."""
        return sum(len(rounds) for rounds in self.groupings.values())

    def latency_series(self) -> "Mapping[str, Any] | None":
        """The client-observed total-latency histogram snapshot."""
        return self.snapshot.get("histograms", {}).get("scenario.latency.total_seconds")

    def stage_series(self) -> dict[str, Mapping[str, Any]]:
        """Per-stage serve-side series present in this run's snapshot."""
        stages: dict[str, Mapping[str, Any]] = {}
        for stage, name in _STAGE_SERIES.items():
            for group in ("timers", "histograms"):
                payload = self.snapshot.get(group, {}).get(name)
                if payload is not None and payload.get("count", 0) > 0:
                    stages[stage] = payload
                    break
        return stages


@dataclass(frozen=True)
class ScenarioComparison:
    """Outcome of one scenario across paradigms.

    ``passed`` requires every per-paradigm SLO verdict to pass (a
    scenario without an SLO block passes on identity alone — identity
    itself is enforced before construction, so a comparison object
    always describes bit-identical groupings).
    """

    spec: ScenarioSpec
    runs: tuple[ParadigmRun, ...]
    reports: Mapping[str, "SLOReport | None"]
    rounds_compared: int

    @property
    def passed(self) -> bool:
        """Whether every configured SLO verdict passed."""
        return all(report is None or report.passed for report in self.reports.values())

    @property
    def verdict(self) -> str:
        """``"pass"`` or ``"fail"``."""
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict[str, Any]:
        """The ``BENCH_scenario_<name>.json`` payload (sans provenance)."""
        paradigms: dict[str, Any] = {}
        for run in self.runs:
            report = self.reports.get(run.paradigm)
            paradigms[run.paradigm] = {
                "requests": run.load.requests,
                "errors": run.load.errors,
                "error_rate": run.load.error_rate,
                "throughput_rps": run.load.throughput_rps,
                "duration_seconds": run.load.duration_seconds,
                "rounds_played": run.rounds_played,
                "latency": run.latency_series(),
                "stages": run.stage_series(),
                "slo": None if report is None else report.to_dict(),
            }
        return {
            "schema": SCENARIO_ARTIFACT_SCHEMA,
            "scenario": self.spec.to_dict(),
            "identical": True,
            "rounds_compared": self.rounds_compared,
            "verdict": self.verdict,
            "paradigms": paradigms,
        }


def _serve_config(spec: ScenarioSpec) -> ServeConfig:
    """The scenario's serve config: its ``serve`` overrides and SLO block.

    An ``individual`` scenario also gets one matchmaking spec shaped like
    the population, quota-bound to its cohort count.
    """
    overrides = dict(spec.serve) if spec.serve is not None else {}
    if spec.slo is not None and "slo" not in overrides:
        overrides["slo"] = spec.slo.to_dict()
    if spec.arrival.kind == "individual":
        population = spec.population
        overrides.setdefault(
            "matchmaking",
            {
                "specs": [
                    {
                        "n": population.n,
                        "k": population.k,
                        "policy": spec.policy,
                        "mode": population.mode,
                        "rate": population.rate,
                        "seed": spec.seed,
                        "max_cohorts": population.cohorts,
                    }
                ]
            },
        )
    return ServeConfig(**overrides)


def _run_served(
    spec: ScenarioSpec, paradigm: str, body: Callable[[ScenarioSpec, Any, str], ParadigmRun]
) -> ParadigmRun:
    """Run ``body(spec, client, paradigm)`` against a fresh service.

    ``inprocess`` hands the body an in-process client; ``http`` first
    serves the service on an ephemeral port.  The service closes on
    every path, a failed bind included.
    """
    with GroupingService(_serve_config(spec)) as service:
        if paradigm == "inprocess":
            return body(spec, InProcessClient(service), paradigm)
        server = start_server(service, port=0)
        try:
            return body(spec, HttpClient(server.url), paradigm)
        finally:
            server.close()


def _run_service_paradigm(spec: ScenarioSpec, client: Any, paradigm: str) -> ParadigmRun:
    population = spec.population
    cohort_ids = [
        client.create_cohort(
            population.skills(i).tolist(),
            population.k,
            mode=population.mode,
            rate=population.rate,
            policy=spec.policy,
            seed=spec.seed + i,
        )["cohort"]
        for i in range(population.cohorts)
    ]
    records: dict[int, dict[int, tuple]] = {i: {} for i in range(population.cohorts)}
    records_lock = _sanitize.lock("scenario.harness.records")

    def send(index: int) -> None:
        # Round-robin across cohorts so bursts spread over sessions the
        # way concurrent learners would.  Calls racing on one cohort are
        # safe: each advances exactly one round and reports its index.
        cohort = index % population.cohorts
        response = client.advance_rounds(cohort_ids[cohort], 1)
        with records_lock:
            for record in response["played"]:
                records[cohort][int(record["round"])] = _canonical_grouping(record["groups"])

    schedule = ArrivalSchedule.from_spec(spec.arrival, spec.total_requests, seed=spec.seed)
    load = run_load(send, schedule, concurrency=spec.arrival.concurrency)
    return ParadigmRun(
        paradigm=paradigm,
        groupings=records,
        load=load,
        snapshot=_obs.metrics_registry().snapshot(),
    )


def _individual_skill_stream(spec: ScenarioSpec) -> np.ndarray:
    """The seeded arrival-order skill stream of an individual scenario.

    Concatenates every cohort's seeded skill draw and shuffles the pool
    with the scenario seed, so participants of different "intended"
    cohorts interleave the way independent arrivals would — which
    cohorts actually condense together is the matchmaker's decision.
    """
    population = spec.population
    pool = np.concatenate(
        [population.skills(i) for i in range(population.cohorts)]
    )
    order = np.random.default_rng(spec.seed).permutation(pool.size)
    return pool[order]


def _run_individual_paradigm(spec: ScenarioSpec, client: Any, paradigm: str) -> ParadigmRun:
    population = spec.population
    skills = _individual_skill_stream(spec)

    # Phase 1: every participant joins individually on the arrival
    # schedule; the service condenses cohorts as waves fill.
    def send_join(index: int) -> None:
        client.join(float(skills[index]), participant=f"p{index:05d}")

    schedule = ArrivalSchedule.from_spec(spec.arrival, spec.total_requests, seed=spec.seed)
    join_load = run_load(send_join, schedule, concurrency=spec.arrival.concurrency)

    # Wait out any deadline-driven stragglers (fill-triggered waves
    # condense synchronously, so this normally returns immediately).
    deadline = time.monotonic() + 60.0
    while True:
        snapshot = client.matchmaking()
        if snapshot["waiting"] == 0:
            break
        if time.monotonic() >= deadline:
            raise ParadigmMismatch(
                f"[{paradigm}] matchmaking left {snapshot['waiting']} of "
                f"{spec.total_requests} participants unmatched"
            )
        time.sleep(0.05)
    cohort_ids = [
        cohort
        for name in sorted(snapshot["specs"])
        for cohort in snapshot["specs"][name]["cohorts"]
    ]
    if len(cohort_ids) != population.cohorts:
        raise ParadigmMismatch(
            f"[{paradigm}] matchmaking condensed {len(cohort_ids)} cohorts, "
            f"expected {population.cohorts}"
        )
    # Initial describes, captured before any round mutates the skills.
    initial = [client.get_cohort(cohort_id) for cohort_id in cohort_ids]

    # Phase 2: advance rounds on the condensed cohorts (closed loop —
    # the arrival schedule modelled joins, not rounds).
    records: dict[int, dict[int, tuple]] = {i: {} for i in range(population.cohorts)}
    records_lock = _sanitize.lock("scenario.harness.records")

    def send_round(index: int) -> None:
        cohort = index % population.cohorts
        response = client.advance_rounds(cohort_ids[cohort], 1)
        with records_lock:
            for record in response["played"]:
                records[cohort][int(record["round"])] = _canonical_grouping(record["groups"])

    round_schedule = ArrivalSchedule.closed_loop(population.cohorts * spec.rounds)
    round_load = run_load(send_round, round_schedule, concurrency=spec.arrival.concurrency)

    # Every condensed cohort must replay bit-identically offline: same
    # recorded skills + seed through simulate() gives the same groupings.
    for cohort_index, info in enumerate(initial):
        result = simulate(
            build_policy(spec.policy, mode=population.mode, rate=population.rate),
            np.asarray(info["skills"], dtype=np.float64),
            k=population.k,
            alpha=spec.rounds,
            mode=population.mode,
            rate=population.rate,
            seed=int(info["seed"]),
        )
        for round_index, groups in records[cohort_index].items():
            expected = _canonical_grouping(result.groupings[round_index])
            if groups != expected:
                raise ParadigmMismatch(
                    f"[{paradigm}] condensed cohort {info['cohort']} diverges from "
                    f"offline simulate() at round {round_index}: served {groups}, "
                    f"offline {expected}"
                )

    load = LoadResult(
        requests=join_load.requests + round_load.requests,
        errors=join_load.errors + round_load.errors,
        duration_seconds=join_load.duration_seconds + round_load.duration_seconds,
    )
    return ParadigmRun(
        paradigm=paradigm,
        groupings=records,
        load=load,
        snapshot=_obs.metrics_registry().snapshot(),
    )


def _cli_environment() -> dict[str, str]:
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not existing else src_root + os.pathsep + existing
    return env


def _run_cli(spec: ScenarioSpec, *, timeout: float = 300.0) -> ParadigmRun:
    population = spec.population
    env = _cli_environment()
    records: dict[int, dict[int, tuple]] = {i: {} for i in range(population.cohorts)}
    with tempfile.TemporaryDirectory(prefix="dygroups-scenario-") as tmp:
        workdir = Path(tmp)
        for i in range(population.cohorts):
            (workdir / f"skills_{i}.json").write_text(
                json.dumps({"skills": population.skills(i).tolist()})
            )

        def send(index: int) -> None:
            command = [
                sys.executable,
                "-m",
                "repro",
                "simulate",
                "--skills-file",
                str(workdir / f"skills_{index}.json"),
                "--policy",
                spec.policy,
                "--k",
                str(population.k),
                "--alpha",
                str(spec.rounds),
                "--mode",
                population.mode,
                "--rate",
                str(population.rate),
                "--seed",
                str(spec.seed + index),
                "--save",
                str(workdir / f"result_{index}.json"),
            ]
            completed = subprocess.run(
                command, env=env, capture_output=True, text=True, timeout=timeout
            )
            if completed.returncode != 0:
                raise RuntimeError(
                    f"dygroups simulate exited {completed.returncode}: "
                    f"{completed.stderr.strip() or completed.stdout.strip()}"
                )

        # One CLI invocation simulates a whole cohort trajectory, so the
        # CLI schedule is one closed-loop request per cohort — latency
        # is per-cohort, not per-round, and is reported as such.
        schedule = ArrivalSchedule.closed_loop(population.cohorts)
        concurrency = min(spec.arrival.concurrency, population.cohorts)
        load = run_load(send, schedule, concurrency=concurrency)
        for i in range(population.cohorts):
            result_path = workdir / f"result_{i}.json"
            if not result_path.is_file():
                continue
            payload = json.loads(result_path.read_text())
            for round_index, groups in enumerate(payload["groupings"]):
                records[i][round_index] = _canonical_grouping(groups)
    return ParadigmRun(
        paradigm="cli",
        groupings=records,
        load=load,
        snapshot=_obs.metrics_registry().snapshot(),
    )


def run_paradigm(spec: ScenarioSpec, paradigm: str) -> ParadigmRun:
    """Execute ``spec`` through one paradigm on a freshly reset registry."""
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}")
    individual = spec.arrival.kind == "individual"
    if individual and paradigm == "cli":
        raise ValueError(
            "paradigm 'cli' does not support individual arrivals; expected one of "
            "('inprocess', 'http') (the cli paradigm has no matchmaking queue to join)"
        )
    _obs.metrics_registry().reset()
    if paradigm == "cli":
        return _run_cli(spec)
    body = _run_individual_paradigm if individual else _run_service_paradigm
    return _run_served(spec, paradigm, body)


def _assert_identical(runs: Sequence[ParadigmRun]) -> int:
    """Check bit-identity over jointly-played rounds; returns the count."""
    reference = runs[0]
    compared = 0
    for cohort in reference.groupings:
        joint = set(reference.groupings[cohort])
        for run in runs[1:]:
            joint &= set(run.groupings.get(cohort, {}))
        for round_index in sorted(joint):
            expected = reference.groupings[cohort][round_index]
            for run in runs[1:]:
                actual = run.groupings[cohort][round_index]
                if actual != expected:
                    raise ParadigmMismatch(
                        f"groupings diverge: cohort {cohort} round {round_index}: "
                        f"{reference.paradigm} produced {expected}, "
                        f"{run.paradigm} produced {actual}"
                    )
            compared += 1
    if len(runs) > 1 and compared == 0:
        raise ParadigmMismatch(
            "no jointly-played rounds to compare — every paradigm pair "
            "diverged in which rounds completed"
        )
    return compared


def compare_scenario(
    spec: "ScenarioSpec", *, paradigms: Sequence[str] = PARADIGMS
) -> ScenarioComparison:
    """Run ``spec`` through ``paradigms`` and assert grouping identity.

    Raises:
        ParadigmMismatch: when any two paradigms disagree on any
            jointly-played round's grouping (or share no round at all).
        ValueError: for an unknown paradigm name.
    """
    if not paradigms:
        raise ValueError("compare_scenario requires at least one paradigm")
    runs = tuple(run_paradigm(spec, paradigm) for paradigm in paradigms)
    rounds_compared = _assert_identical(runs)
    reports = {
        run.paradigm: (
            None
            if spec.slo is None
            else evaluate_slos(
                spec.slo, run.snapshot, duration_seconds=run.load.duration_seconds
            )
        )
        for run in runs
    }
    return ScenarioComparison(
        spec=spec, runs=runs, reports=reports, rounds_compared=rounds_compared
    )


def write_scenario_artifact(
    comparison: ScenarioComparison, directory: "str | Path" = "results"
) -> Path:
    """Write ``BENCH_scenario_<name>.json`` and return its path.

    The payload is the comparison's :meth:`~ScenarioComparison.to_dict`
    plus a provenance block (git SHA, UTC timestamp, host info).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = comparison.to_dict()
    payload["provenance"] = provenance_stamp()
    path = directory / f"BENCH_scenario_{comparison.spec.name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
