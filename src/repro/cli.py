"""Command-line interface: ``dygroups`` / ``python -m repro``.

Subcommands:

* ``toy`` — the paper's Section II/III toy example, round by round;
* ``run`` — compare algorithms under one configuration;
* ``sweep`` — vary one parameter over a grid;
* ``figure`` — regenerate any figure of the paper (``--full`` for the
  paper-sized grids);
* ``amt`` — the simulated human-subject experiments;
* ``theorems`` — the numeric theorem-verification battery;
* ``lint`` — the domain-aware static-analysis rules (``DYG1xx``
  determinism, ``DYG2xx`` contracts, ``DYG3xx`` hygiene) over python
  sources; exits non-zero on findings (see docs/static-analysis.md);
* ``trace`` — observability tooling (``trace summarize <journal.jsonl>``
  prints a per-phase timing table from a journal);
* ``serve`` — the grouping service: a long-running HTTP JSON API over
  the session store and grouping memo of :mod:`repro.serve` (see
  docs/serving.md); ``--slo TARGET=LIMIT``
  surfaces live SLO verdicts on ``GET /metrics``; ``--matchmaking``
  (with optional repeatable ``--matchmaking-spec k=v,...``) enables the
  streaming admission layer (see docs/matchmaking.md);
* ``join`` — join a running server's matchmaking queue as one
  participant and poll until matched/expired (exit 0 only on a match);
* ``scenario`` — declared workloads (``run`` / ``compare`` / ``list``):
  seeded open-loop load generation, SLO verdicts, and cross-paradigm
  bit-identity checks over the scenario catalog (see SCENARIOS.md);
* ``list`` — available figures, algorithms, distributions, journal
  events, and lint rules.

Exit codes are consistent across subcommands: ``0`` success, ``1``
operational failure (failed claims, lint findings, a port that cannot be
bound), ``2`` usage error (invalid arguments or inputs) — never a bare
traceback for a predictable failure.

Every workload subcommand also accepts the observability flags
``--log-level LEVEL`` (stdlib logging on the ``repro.*`` hierarchy),
``--journal PATH`` (append an NDJSON event journal) and ``--trace``
(record timing spans; printed as a per-phase table when no journal is
given), plus ``--contracts`` to enable the runtime invariant checks of
:mod:`repro.analysis.contracts`.  See docs/observability.md and
docs/static-analysis.md.

The spec-driven subcommands (``run``, ``sweep``, ``grid``) additionally
accept the performance knobs ``--engine {auto,scalar,vectorized}``
(stacked-trial vectorized simulation) and ``--workers N`` (process
parallelism on a warm worker pool; ``REPRO_WORKERS`` sets the default)
— both bit-identical to the scalar serial path; see
docs/performance.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every workload subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--log-level",
        metavar="LEVEL",
        default=None,
        choices=("debug", "info", "warning", "error"),
        help="enable stdlib logging on the repro.* loggers",
    )
    group.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append an NDJSON event journal (.jsonl) of the run",
    )
    group.add_argument(
        "--trace",
        action="store_true",
        help="record timing spans (per-phase table on exit when no --journal)",
    )
    correctness = parent.add_argument_group("correctness")
    correctness.add_argument(
        "--contracts",
        action="store_true",
        help="enable runtime invariant contracts (also via REPRO_CONTRACTS=1); "
        "results are bit-identical either way",
    )
    correctness.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime lock sanitizer (also via REPRO_SANITIZE=1); "
        "reports lock-order inversions and held-lock blocking calls as "
        "sanitizer.* journal events; results are bit-identical either way",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="dygroups",
        description="DyGroups: targeted dynamic groups formation for peer learning (ICDE 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs = [_obs_parent()]

    sub.add_parser("toy", help="run the paper's 9-student toy example", parents=obs)

    run = sub.add_parser(
        "run", help="compare algorithms under one configuration", parents=obs
    )
    _add_spec_arguments(run)
    run.add_argument(
        "--save", metavar="PATH", default=None, help="also write the outcome as JSON"
    )

    solo = sub.add_parser(
        "simulate", help="run one policy on skills loaded from a file", parents=obs
    )
    solo.add_argument("--skills-file", required=True, help=".json/.csv/.txt skill vector")
    solo.add_argument("--policy", default="dygroups")
    solo.add_argument("--k", type=int, required=True)
    solo.add_argument("--alpha", type=int, default=5)
    solo.add_argument("--rate", type=float, default=0.5)
    solo.add_argument("--mode", choices=("star", "clique"), default="star")
    solo.add_argument("--seed", type=int, default=0)
    solo.add_argument(
        "--save", metavar="PATH", default=None, help="write the full trajectory as JSON"
    )

    swp = sub.add_parser("sweep", help="vary one parameter over a grid", parents=obs)
    _add_spec_arguments(swp)
    swp.add_argument("--parameter", required=True, choices=("n", "k", "alpha", "rate"))
    swp.add_argument(
        "--values", required=True, help="comma-separated grid, e.g. 100,1000,10000"
    )

    grd = sub.add_parser(
        "grid", help="cross two or more parameters (sensitivity analysis)", parents=obs
    )
    _add_spec_arguments(grd)
    grd.add_argument(
        "--vary",
        required=True,
        action="append",
        metavar="PARAM=V1,V2,...",
        help="a grid dimension, e.g. --vary k=5,50 --vary rate=0.2,0.8",
    )
    grd.add_argument("--reference", default="random", help="denominator algorithm for ratios")

    fig = sub.add_parser("figure", help="regenerate a figure from the paper", parents=obs)
    fig.add_argument("name", help="figure id, e.g. fig05a (see `dygroups list`)")
    fig.add_argument("--full", action="store_true", help="use the paper-sized grids")
    fig.add_argument("--runs", type=int, default=None, help="override the number of runs")

    amt = sub.add_parser(
        "amt", help="run a simulated human-subject experiment", parents=obs
    )
    amt.add_argument("experiment", type=int, choices=(1, 2), help="experiment number")
    amt.add_argument("--seed", type=int, default=0)

    theorems = sub.add_parser(
        "theorems", help="run the theorem-verification battery", parents=obs
    )
    theorems.add_argument("--seed", type=int, default=0)
    theorems.add_argument("--trials", type=int, default=50, help="Theorem 5 trial count")

    repr_cmd = sub.add_parser(
        "reproduce",
        help="regenerate the synthetic figures and grade the paper's claims",
        parents=obs,
    )
    repr_cmd.add_argument("--full", action="store_true", help="paper-sized grids (hours)")
    repr_cmd.add_argument("--runs", type=int, default=None)

    report = sub.add_parser("report", help="print all archived benchmark results")
    report.add_argument(
        "--results-dir", default=None, help="override the benchmarks/results directory"
    )

    lint = sub.add_parser(
        "lint",
        help="run the DYG static-analysis rules over python sources",
        parents=obs,
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: ./src if present, else .)",
    )
    lint.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes/prefixes to enable, e.g. DYG1,DYG302",
    )
    lint.add_argument(
        "--ignore",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes/prefixes to disable",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit the report as a JSON document"
    )
    lint.add_argument(
        "--rules", action="store_true", help="print the rule catalog and exit"
    )
    lint.add_argument(
        "--statistics",
        action="store_true",
        help="append per-rule finding counts to the report",
    )

    trace_cmd = sub.add_parser("trace", help="observability tooling over run journals")
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_sum = trace_sub.add_parser(
        "summarize", help="print a per-phase timing table from a journal"
    )
    trace_sum.add_argument("journal_file", help="an NDJSON journal written with --journal")

    sanitize_cmd = sub.add_parser(
        "sanitize", help="runtime lock-sanitizer tooling over run journals"
    )
    sanitize_sub = sanitize_cmd.add_subparsers(dest="sanitize_command", required=True)
    sanitize_report = sanitize_sub.add_parser(
        "report", help="summarize sanitizer.* events from a journal"
    )
    sanitize_report.add_argument(
        "journal_file",
        help="an NDJSON journal written with --journal under --sanitize/REPRO_SANITIZE=1",
    )

    serve = sub.add_parser(
        "serve", help="run the grouping service (HTTP JSON API)", parents=obs
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default %(default)s)")
    serve.add_argument(
        "--port", type=int, default=8750, help="TCP port; 0 picks an ephemeral port"
    )
    serve.add_argument(
        "--cache-size", type=int, default=1024,
        help="grouping-memo entries; 0 disables the cache",
    )
    serve.add_argument(
        "--session-ttl", type=float, default=1800.0,
        help="seconds of inactivity before a cohort is evicted",
    )
    serve.add_argument(
        "--slo",
        action="append",
        metavar="TARGET=LIMIT",
        default=None,
        help="an SLO target evaluated live on GET /metrics, e.g. "
        "--slo latency_p95_ms=250 --slo max_error_rate=0.01 (repeatable)",
    )
    serve.add_argument(
        "--matchmaking",
        action="store_true",
        help="enable the streaming admission layer (POST /v1/join; "
        "see docs/matchmaking.md)",
    )
    serve.add_argument(
        "--matchmaking-spec",
        action="append",
        metavar="KEY=VAL,...",
        default=None,
        help="a GroupSpec as comma-separated fields, e.g. "
        "--matchmaking-spec name=novice,n=20,k=4,deadline_seconds=15 "
        "(repeatable; implies --matchmaking)",
    )

    join = sub.add_parser(
        "join", help="join a running server's matchmaking queue", parents=obs
    )
    join.add_argument(
        "--url",
        default="http://127.0.0.1:8750",
        help="server base URL (default %(default)s)",
    )
    join.add_argument(
        "--skill", type=float, required=True, help="this participant's skill level"
    )
    join.add_argument(
        "--participant", default=None, help="participant id (default: server-assigned)"
    )
    join.add_argument("--spec", default=None, help="group-spec tag to queue under")
    join.add_argument(
        "--timeout", type=float, default=60.0,
        help="seconds to wait for a match before giving up (default %(default)s)",
    )
    join.add_argument(
        "--poll", type=float, default=0.25,
        help="status-poll interval in seconds (default %(default)s)",
    )
    join.add_argument(
        "--no-wait",
        action="store_true",
        help="enqueue and exit immediately without polling for a match",
    )

    scenario = sub.add_parser(
        "scenario", help="declared workloads: load generation, SLOs, paradigm comparison"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)
    scen_run = scenario_sub.add_parser(
        "run", help="run a scenario through one execution paradigm", parents=obs
    )
    scen_run.add_argument("scenario", help="catalog name or JSON spec file (see SCENARIOS.md)")
    scen_run.add_argument(
        "--paradigm",
        choices=("inprocess", "http", "cli"),
        default="inprocess",
        help="execution paradigm (default %(default)s)",
    )
    scen_run.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="also write BENCH_scenario_<name>.json under DIR",
    )
    scen_compare = scenario_sub.add_parser(
        "compare",
        help="run a scenario through several paradigms and assert identical groupings",
        parents=obs,
    )
    scen_compare.add_argument("scenario", help="catalog name or JSON spec file")
    scen_compare.add_argument(
        "--paradigms",
        metavar="P1,P2,...",
        default="inprocess,http,cli",
        help="comma-separated paradigms to compare (default %(default)s)",
    )
    scen_compare.add_argument(
        "--artifact-dir",
        metavar="DIR",
        default=None,
        help="also write BENCH_scenario_<name>.json under DIR",
    )
    scenario_sub.add_parser("list", help="list the built-in scenario catalog")

    sub.add_parser(
        "list", help="list figures, algorithms, distributions, and journal events"
    )
    return parser


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=2_000)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--alpha", type=int, default=5)
    parser.add_argument("--rate", type=float, default=0.5)
    parser.add_argument("--mode", choices=("star", "clique"), default="star")
    parser.add_argument("--distribution", default="lognormal")
    parser.add_argument(
        "--algorithms",
        "--algorithm",
        dest="algorithms",
        default="dygroups,random,percentile,lpa,kmeans",
        help="comma-separated registry policy specs — a name or "
        "'name:key=value;key=value' (see `dygroups list`)",
    )
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    from repro.engine.select import ENGINES

    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="simulation engine: auto stacks runs through the vectorized "
        "kernels when possible; results are bit-identical either way",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-parallel worker count; 0 defers to REPRO_WORKERS "
        "(unset means serial); results are bit-identical to serial",
    )


def _spec_from_args(args: argparse.Namespace):
    from repro.experiments.spec import ExperimentSpec

    return ExperimentSpec(
        n=args.n,
        k=args.k,
        alpha=args.alpha,
        rate=args.rate,
        mode=args.mode,
        distribution=args.distribution,
        algorithms=tuple(a.strip() for a in args.algorithms.split(",") if a.strip()),
        runs=args.runs,
        seed=args.seed,
        engine=args.engine,
        workers=args.workers,
    )


def _command_toy() -> int:
    from repro.core import dygroups
    from repro.data import toy_example_skills

    skills = toy_example_skills()
    print("Toy example (Section II): 9 students, k=3 groups, r=0.5, alpha=3\n")
    for mode in ("star", "clique"):
        result = dygroups(skills, k=3, alpha=3, rate=0.5, mode=mode, record_history=True)
        print(f"DyGroups-{mode.capitalize()}:")
        assert result.skill_history is not None
        for t, grouping in enumerate(result.groupings, start=1):
            groups_text = ", ".join(
                "[" + ", ".join(f"{result.skill_history[t - 1][m]:.4g}" for m in g) + "]"
                for g in grouping
            )
            print(f"  round {t}: {groups_text}  (LG={result.round_gains[t - 1]:.6g})")
        print(f"  total learning gain: {result.total_gain:.6g}\n")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_spec
    from repro.experiments.tables import comparison_table

    outcome = run_spec(_spec_from_args(args))
    print(comparison_table(outcome))
    if args.save:
        from repro.io import save_json, spec_outcome_to_dict

        path = save_json(spec_outcome_to_dict(outcome), args.save)
        print(f"\nsaved outcome to {path}")
    return 0


def _command_simulate(args: argparse.Namespace) -> int:
    from repro.core.simulation import simulate
    from repro.io import load_skills
    from repro.registry import build_policy

    skills = load_skills(args.skills_file)
    policy = build_policy(args.policy, mode=args.mode, rate=args.rate)
    result = simulate(
        policy,
        skills,
        k=args.k,
        alpha=args.alpha,
        mode=args.mode,
        rate=args.rate,
        seed=args.seed,
        record_history=True,
    )
    print(result)
    print("round gains:", [round(float(g), 6) for g in result.round_gains])
    print(f"total gain:  {result.total_gain:.6g}")
    if args.save:
        from repro.io import save_json, simulation_result_to_dict

        path = save_json(simulation_result_to_dict(result), args.save)
        print(f"saved trajectory to {path}")
    return 0


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.render import render_table
    from repro.experiments.sweep import sweep

    values = [float(v) for v in args.values.split(",") if v.strip()]
    series_set = sweep(
        _spec_from_args(args),
        args.parameter,
        values,
        title=f"Sweep over {args.parameter}",
    )
    print(render_table(series_set))
    return 0


def _command_grid(args: argparse.Namespace) -> int:
    from repro.experiments.grid import grid_table, run_grid

    parameters: dict[str, list] = {}
    for dimension in args.vary:
        if "=" not in dimension:
            print(f"bad --vary value {dimension!r}; expected PARAM=V1,V2,...", file=sys.stderr)
            return 2
        name, _, raw = dimension.partition("=")
        values = [float(v) if name == "rate" else v for v in raw.split(",") if v]
        if name in ("n", "k", "alpha"):
            values = [int(float(v)) for v in values]
        parameters[name] = values
    cells = run_grid(_spec_from_args(args), parameters)
    algorithm = "dygroups" if "dygroups" in args.algorithms else args.algorithms.split(",")[0]
    print(grid_table(cells, algorithm=algorithm, reference=args.reference))
    return 0


def _command_figure(args: argparse.Namespace) -> int:
    from repro.experiments.figures import FIGURES
    from repro.experiments.render import render_table
    from repro.metrics.series import SeriesSet

    try:
        figure = FIGURES[args.name]
    except KeyError:
        print(f"unknown figure {args.name!r}; run `dygroups list`", file=sys.stderr)
        return 2
    produced = figure(full=args.full, runs=args.runs)
    parts = produced if isinstance(produced, tuple) else (produced,)
    for part in parts:
        assert isinstance(part, SeriesSet)
        print(render_table(part))
        print()
    return 0


def _command_amt(args: argparse.Namespace) -> int:
    from repro.amt import run_experiment_1, run_experiment_2

    runner = run_experiment_1 if args.experiment == 1 else run_experiment_2
    result = runner(seed=args.seed)
    config = result.config
    print(
        f"Simulated AMT Experiment-{args.experiment}: populations of {config.population_size}, "
        f"k={config.k}, r={config.rate}, alpha={config.alpha}\n"
    )
    for name, trace in result.traces.items():
        scores = ", ".join(f"{s:.4f}" for s in trace.mean_scores)
        retention = ", ".join(f"{r:.3f}" for r in trace.retention)
        print(f"{name}:")
        print(f"  mean assessment per round: [{scores}]")
        print(f"  retention per round:       [{retention}]")
        print(f"  total latent gain:         {trace.total_gain:.4f}\n")
    print("ranking (best first):", " > ".join(result.ranking()))
    return 0


def _command_theorems(args: argparse.Namespace) -> int:
    from repro.theory import verify_all

    battery = verify_all(seed=args.seed, theorem5_trials=args.trials)
    print(battery.summary())
    return 0 if battery.all_hold else 1


def _command_list() -> int:
    from repro.data.distributions import DISTRIBUTIONS
    from repro.experiments.figures import FIGURES
    from repro.obs.journal import EVENTS
    from repro.registry import capability_matrix

    from repro.analysis import rule_catalog

    print("figures:       ", ", ".join(sorted(FIGURES)))
    rows = capability_matrix()
    print(
        "algorithms:    ",
        ", ".join(name + ("*" if "extension" in caps else "") for name, caps, _ in rows),
        " (* = Section VII extension)",
    )
    for name, caps, params in rows:
        if params:
            print(f"                 {name} params: " + ", ".join(params))
    print("distributions: ", ", ".join(sorted(DISTRIBUTIONS)))
    print("journal events:", ", ".join(EVENTS))
    print("lint rules:    ", ", ".join(code for code, *_ in rule_catalog()),
          "(`dygroups lint --rules` for the catalog)")
    print("observability:  --log-level LEVEL, --journal PATH, --trace "
          "(any subcommand); `dygroups trace summarize <journal.jsonl>`")
    print("correctness:    --contracts or REPRO_CONTRACTS=1 enables runtime "
          "invariant checks; `dygroups lint [paths]` runs the static rules; "
          "--sanitize or REPRO_SANITIZE=1 enables the lock sanitizer "
          "(`dygroups sanitize report <journal.jsonl>`)")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import LintEngine, rule_catalog
    from repro.obs import runtime as obs_runtime
    from repro.obs import trace as _trace

    if args.rules:
        for code, name, summary, fix in rule_catalog():
            print(f"{code}  {name:24} {summary}")
            if fix:
                print(f"{'':6}  {'fix:':24} {fix}")
        return 0
    paths = list(args.paths)
    if not paths:
        paths = ["src"] if Path("src").is_dir() else ["."]
    try:
        engine = LintEngine(select=args.select, ignore=args.ignore)
    except ValueError as error:
        print(f"dygroups lint: {error}", file=sys.stderr)
        return 2
    try:
        with _trace.span("analysis.lint", paths=",".join(map(str, paths))):
            report = engine.lint_paths(paths)
    except FileNotFoundError as error:
        print(f"dygroups lint: {error}", file=sys.stderr)
        return 2
    state = obs_runtime.state()
    if state is not None and state.journal is not None:
        state.journal.emit(
            "lint",
            paths=[str(p) for p in paths],
            files=report.files_checked,
            findings=len(report.diagnostics),
            counts=report.counts_by_code(),
        )
    if args.json:
        print(report.to_json())
        return 0 if report.clean else 1
    for diagnostic in report.diagnostics:
        print(diagnostic)
    if report.clean:
        print(f"{report.files_checked} file(s) checked — clean")
        if args.statistics:
            print("0 finding(s) by rule: none")
        return 0
    by_code = ", ".join(f"{code}×{n}" for code, n in report.counts_by_code().items())
    print(
        f"\n{len(report.diagnostics)} finding(s) in {report.files_checked} "
        f"file(s) checked ({by_code})"
    )
    if args.statistics:
        catalog = {code: name for code, name, *_ in rule_catalog()}
        for code, count in sorted(report.counts_by_code().items()):
            print(f"{count:6}  {code}  {catalog.get(code, 'parse-error')}")
    return 1


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serve.config import ServeConfig
    from repro.serve.http import run_server

    slo: "dict[str, float] | None" = None
    if args.slo:
        slo = {}
        for item in args.slo:
            target, sep, raw = item.partition("=")
            try:
                if not sep:
                    raise ValueError
                slo[target] = float(raw)
            except ValueError:
                print(f"bad --slo value {item!r}; expected TARGET=LIMIT", file=sys.stderr)
                return 2
    matchmaking: "dict[str, object] | None" = None
    if args.matchmaking or args.matchmaking_spec:
        specs = []
        for item in args.matchmaking_spec or []:
            try:
                specs.append(_parse_matchmaking_spec(item))
            except ValueError as error:
                print(f"bad --matchmaking-spec {item!r}: {error}", file=sys.stderr)
                return 2
        matchmaking = {"specs": specs} if specs else {}
    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        session_ttl=args.session_ttl,
        slo=slo,
        matchmaking=matchmaking,
    )
    return run_server(config)


def _parse_matchmaking_spec(item: str) -> dict[str, object]:
    """Parse one ``--matchmaking-spec`` value (``k=v,k=v``) into a mapping.

    Values coerce int, then float, then stay strings; field names and
    ranges are validated downstream by ``GroupSpec.from_dict``.
    """
    fields: dict[str, object] = {}
    for pair in item.split(","):
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValueError(f"expected KEY=VAL, got {pair!r}")
        raw = raw.strip()
        value: object
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        fields[key] = value
    return fields


def _command_join(args: argparse.Namespace) -> int:
    import time

    from repro.serve.client import HttpClient
    from repro.serve.errors import ServeError

    client = HttpClient(args.url, timeout=max(args.timeout, 5.0))
    try:
        joined = client.join(args.skill, participant=args.participant, spec=args.spec)
    except ServeError as error:
        print(f"dygroups join: {error} [{error.code}]", file=sys.stderr)
        return 1
    participant = joined["participant"]
    print(
        f"dygroups join: {participant} queued under spec {joined['spec']!r} "
        f"(status {joined['status']})"
    )
    if args.no_wait:
        return 0
    deadline = time.monotonic() + args.timeout
    status = joined
    while status["status"] == "waiting":
        if time.monotonic() >= deadline:
            print(
                f"dygroups join: {participant} still waiting after {args.timeout:g}s",
                file=sys.stderr,
            )
            return 1
        time.sleep(max(args.poll, 0.01))
        try:
            status = client.participant_status(participant)
        except ServeError as error:
            print(f"dygroups join: {error} [{error.code}]", file=sys.stderr)
            return 1
    if status["status"] == "matched":
        print(
            f"dygroups join: {participant} matched into cohort {status['cohort']} "
            f"as member {status['member']} "
            f"(waited {status['wait_seconds']:.3f}s)"
        )
        return 0
    print(f"dygroups join: {participant} resolved {status['status']}", file=sys.stderr)
    return 1


def _command_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios import CATALOG, load_scenario

    if args.scenario_command == "list":
        print("built-in scenarios (also accepts a JSON spec file; see SCENARIOS.md):")
        for name in sorted(CATALOG):
            spec = CATALOG[name]
            targets = "-" if spec.slo is None else ",".join(sorted(spec.slo.targets()))
            print(
                f"  {name:<18} arrival={spec.arrival.kind:<12} "
                f"cohorts={spec.population.cohorts:<3} rounds={spec.rounds:<3} slo={targets}"
            )
        return 0

    from repro.experiments.tables import paradigm_table
    from repro.scenarios.harness import PARADIGMS, ParadigmMismatch, compare_scenario, write_scenario_artifact

    spec = load_scenario(args.scenario)
    if args.scenario_command == "run":
        paradigms: tuple[str, ...] = (args.paradigm,)
    else:
        paradigms = tuple(p.strip() for p in args.paradigms.split(",") if p.strip())
        unknown = [p for p in paradigms if p not in PARADIGMS]
        if unknown:
            print(
                f"unknown paradigm(s) {unknown}; expected a subset of {list(PARADIGMS)}",
                file=sys.stderr,
            )
            return 2
    try:
        comparison = compare_scenario(spec, paradigms=paradigms)
    except ParadigmMismatch as error:
        print(f"scenario {spec.name}: PARADIGM MISMATCH: {error}", file=sys.stderr)
        return 1
    print(paradigm_table(comparison))
    for paradigm, report in sorted(comparison.reports.items()):
        if report is None:
            continue
        for verdict in report.failures():
            observed = "absent" if verdict.observed is None else f"{verdict.observed:.6g}"
            print(
                f"  SLO FAIL [{paradigm}] {verdict.target}: "
                f"observed {observed} vs limit {verdict.limit:.6g}"
            )
    if args.artifact_dir:
        path = write_scenario_artifact(comparison, args.artifact_dir)
        print(f"\nsaved artifact to {path}")
    return 0 if comparison.passed else 1


def _command_sanitize(args: argparse.Namespace) -> int:
    from repro.analysis.sanitizer import summarize_reports
    from repro.obs.journal import read_journal

    try:
        records = read_journal(args.journal_file)
    except FileNotFoundError:
        print(f"journal not found: {args.journal_file}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"cannot read {args.journal_file}: {error}", file=sys.stderr)
        return 2
    summary = summarize_reports(records)
    if summary["total"] == 0:
        print(
            f"{len(records)} journal record(s) scanned — no sanitizer reports "
            "(run with --sanitize or REPRO_SANITIZE=1 to record them)"
        )
        return 0
    for report in summary["reports"]:
        thread = report.get("thread") or "?"
        print(f"[{report['kind']}] ({thread}) {report['message']}")
    by_kind = ", ".join(f"{kind}×{n}" for kind, n in summary["by_kind"].items())
    print(f"\n{summary['total']} sanitizer report(s) ({by_kind})")
    return 1


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs.summarize import summarize_journal

    try:
        print(summarize_journal(args.journal_file))
    except FileNotFoundError:
        print(f"journal not found: {args.journal_file}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"cannot summarize {args.journal_file}: {error}", file=sys.stderr)
        return 2
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Predictable failures never escape as tracebacks: invalid arguments
    or inputs (``ValueError``/``TypeError``/missing files) exit 2, the
    argparse usage-error convention; environmental failures (``OSError``
    — an unbindable port, an unwritable journal) exit 1.
    """
    args = build_parser().parse_args(argv)
    np.set_printoptions(precision=6, suppress=True)
    try:
        return _run(args)
    except (ValueError, TypeError, FileNotFoundError) as error:
        print(f"dygroups {args.command}: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"dygroups {args.command}: {error}", file=sys.stderr)
        return 1


def _run(args: argparse.Namespace) -> int:
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "sanitize":
        return _command_sanitize(args)
    if getattr(args, "contracts", False):
        from repro.analysis import contracts

        contracts.enable_contracts()
    if getattr(args, "sanitize", False):
        from repro.analysis import sanitizer

        sanitizer.enable_sanitizer()
    observing = bool(
        getattr(args, "journal", None)
        or getattr(args, "trace", False)
        or getattr(args, "log_level", None)
    )
    if not observing:
        return _dispatch(args)
    from repro.obs import runtime as obs_runtime
    from repro.obs.summarize import span_table

    obs_runtime.configure(
        journal=args.journal, trace=args.trace, log_level=args.log_level
    )
    try:
        code = _dispatch(args)
        state = obs_runtime.state()
        if (
            state is not None
            and state.tracer is not None
            and state.journal is None
            and state.tracer.spans
        ):
            print("\ntrace summary (per phase):")
            print(span_table(state.tracer.spans))
        return code
    finally:
        obs_runtime.shutdown()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "toy":
        return _command_toy()
    if args.command == "run":
        return _command_run(args)
    if args.command == "simulate":
        return _command_simulate(args)
    if args.command == "sweep":
        return _command_sweep(args)
    if args.command == "grid":
        return _command_grid(args)
    if args.command == "figure":
        return _command_figure(args)
    if args.command == "amt":
        return _command_amt(args)
    if args.command == "theorems":
        return _command_theorems(args)
    if args.command == "reproduce":
        from repro.experiments.reproduction import reproduce

        report = reproduce(full=args.full, runs=args.runs)
        print(report.summary())
        return 0 if report.all_hold else 1
    if args.command == "report":
        from repro.experiments.report import render_report

        print(render_report(args.results_dir))
        return 0
    if args.command == "lint":
        return _command_lint(args)
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "join":
        return _command_join(args)
    if args.command == "scenario":
        return _command_scenario(args)
    if args.command == "list":
        return _command_list()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
