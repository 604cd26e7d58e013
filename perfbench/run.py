"""The repository benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline|serve-rounds|serve-join|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
same inputs twice, untraced and then with the layer wrappers installed,
and reports the per-layer table of the traced half plus the tracing
overhead.  Every workload runs in fresh processes, checks the program's
outputs, prints each metric by name with its unit, a provenance stamp
and the seed, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output checked out.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: End-to-end metrics, reported by every workload (see README.md).
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "secondary_p50_ms": "ms",
}


@dataclass(frozen=True)
class Workload:
    """One set of inputs; ``why`` and ``leaves_out`` are recorded in README.md.

    ``labels`` names what each workload-neutral metric measures here.
    """

    name: str
    why: str
    primary: str
    secondary: str
    tail: float
    labels: dict[str, str]
    leaves_out: tuple[str, ...] = ()


_COMMON_EXCLUSIONS = (
    "journal and tracing of repro itself stay off (their cost is measured separately)",
    "no replayed cohorts; no LPA or k-means; no opt-in sharding",
)

WORKLOADS = {
    "offline": Workload(
        name="offline",
        why=(
            "run_spec on the warm pool at the largest Fig. 12/13 point, star then clique: "
            "sort dominates star runs, the clique update dominates clique runs"
        ),
        primary="star",
        secondary="clique",
        # About 20 star runs fit in a run: the median is the highest
        # percentile with ten samples beyond it.
        tail=50.0,
        labels={
            "throughput_per_s": "participant-rounds/s, both specs",
            "p50_ms": "star spec run",
            "tail_ms": "star spec run, p50 (the highest level 20 runs support)",
            "secondary_p50_ms": "clique spec run",
        },
        leaves_out=_COMMON_EXCLUSIONS,
    ),
    "serve-rounds": Workload(
        name="serve-rounds",
        why=(
            "dygroups serve, 2 keep-alive connections x 16 live n=120 cohorts advanced "
            "one round per request: HTTP, service, session, kernel, record"
        ),
        primary="round",
        secondary="create",
        tail=99.0,
        labels={
            "throughput_per_s": "requests_per_s",
            "p50_ms": "round_p50_ms",
            "tail_ms": "round_p99_ms",
            "secondary_p50_ms": "create_p50_ms",
        },
        leaves_out=_COMMON_EXCLUSIONS
        + (
            "no fixed-rate open loop until the keep-alive stall is fixed",
            "no wave-forming load: at most nproc connections never reach batch_min",
        ),
    ),
    "serve-join": Workload(
        name="serve-join",
        why=(
            "streaming admission: joins alternate a 30- and a 600-seat spec, each "
            "followed by a status read, so the pool scans grow with the pool"
        ),
        primary="join",
        secondary="status",
        # 1 join in 60 condenses a cohort; p98.5 lies among them and keeps
        # ten samples beyond it at this run length.
        tail=98.5,
        labels={
            "throughput_per_s": "requests_per_s",
            "p50_ms": "join_p50_ms",
            "tail_ms": "join_p98.5_ms",
            "secondary_p50_ms": "status_p50_ms",
        },
        leaves_out=_COMMON_EXCLUSIONS
        + (
            "no fixed-rate open loop until the keep-alive stall is fixed",
            "no deadline condensation: deadlines are an hour, so only fills condense",
        ),
    ),
}

#: Serve shapes per size: (cohorts per connection, rounds per cohort, n, k).
ROUNDS_SHAPE = {"full": (16, 8, 120, 10), "smoke": (4, 3, 120, 10)}
#: Matchmaking specs per size: name -> (n, k).  Hour-long deadlines: only fills condense.
JOIN_SPECS = {
    "full": {"section": (30, 5), "mooc": (600, 120)},
    "smoke": {"section": (10, 5), "mooc": (40, 10)},
}
#: A connection reads the status of the participant it admitted this many joins earlier.
JOIN_LAG = {"full": 16, "smoke": 4}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order of ``BENCHMARK.json``."""
    from perfbench.layers import LAYERS
    from perfbench.tables import LayerTable

    names = list(LayerTable(basis_ns=1.0).metrics(LAYERS))
    return names + [
        "experiments.parallel.efficiency",
        "serve.scheduler.queued_ratio",
        "serve.cache.hit_ratio",
        "trace.overhead",
    ]


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    return "count" if name.endswith((".calls", ".errors")) else "ratio"


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    tables: list[str] = field(default_factory=list)

    def result(self, units: dict[str, str]) -> dict[str, Any]:
        return {
            "correct": not self.failures and self.failed == 0,
            "attempted": self.attempted,
            # Each failed check counts once; a failure never exceeds what was attempted.
            "failed": min(self.attempted, self.failed + len(self.failures)),
            "metrics": {
                name: {"value": self.metrics[name], "unit": units[name]} for name in units
            },
        }


class BenchmarkError(RuntimeError):
    """The program under test could not be run to the end."""


# -- processes -----------------------------------------------------------------


def _env() -> dict[str, str]:
    paths = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def _read_line(proc: subprocess.Popen, timeout: float, what: str) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchmarkError(f"{what} did not start within {timeout:.0f}s (exit code {proc.poll()})")
    return line


def _stop(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """Stop a child gracefully (SIGTERM), then by force, and wait for it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


class Children:
    """Every process a run starts; :meth:`stop_all` ends and reaps them."""

    def __init__(self, rundir: Path) -> None:
        self.rundir = rundir
        self.procs: list[subprocess.Popen] = []

    def spawn(self, cmd: Sequence[str], label: str, **kwargs: Any) -> subprocess.Popen:
        log = open(self.rundir / f"{label}-{len(self.procs)}.stderr", "w")
        try:
            proc = subprocess.Popen(
                list(cmd), stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT, env=_env(), **kwargs
            )
        finally:
            log.close()
        self.procs.append(proc)
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            _stop(proc)

    def stderr_tail(self) -> str:
        logs = sorted(self.rundir.glob("*.stderr"))
        return "\n".join(
            f"--- {log.name}\n{log.read_text()[-2000:]}" for log in logs if log.stat().st_size
        )


# -- offline -------------------------------------------------------------------


def _offline_process(
    children: Children, config: dict, *, timeout: float = 150.0
) -> tuple[subprocess.Popen, float, Path]:
    """Spawn a fresh offline workload process; returns it, its set-up time, its result path."""
    path = children.rundir / f"offline-{len(children.procs)}.json"
    result_path = path.with_suffix(".result.json")
    path.write_text(json.dumps({**config, "result": str(result_path)}))
    started = time.perf_counter()
    proc = children.spawn(
        [sys.executable, str(ROOT / "perfbench" / "offline.py"), str(path)],
        "offline",
        stdin=subprocess.PIPE,
    )
    _read_line(proc, timeout, "the offline workload")
    return proc, time.perf_counter() - started, result_path


def _offline_phase(children: Children, config: dict, *, seconds: float, ops: int = 0) -> tuple[dict, float]:
    """Set up once, then run ``go SECONDS OPS``; returns the result and the set-up time."""
    proc, setup, result_path = _offline_process(children, config)
    proc.stdin.write(f"go {seconds} {ops}\n")
    proc.stdin.flush()
    if proc.wait(timeout=170.0) != 0:
        raise BenchmarkError(f"the offline workload exited with code {proc.returncode}")
    return json.loads(result_path.read_text()), setup


def run_offline(args: argparse.Namespace, children: Children) -> Outcome:
    from perfbench.checks import offline_failures
    from perfbench.offline import specs_for
    from perfbench.spans import load_spans
    from perfbench.tables import offline_table, percentile

    workload = WORKLOADS["offline"]
    workers = os.cpu_count() or 1
    config = {"seed": args.seed, "size": args.size, "workers": workers, "trace": False}
    specs = specs_for(args.seed, args.size)
    outcome = Outcome()
    if not args.trace:
        setups = []
        for _ in range(SETUPS - 1):
            proc, setup, _ = _offline_process(children, config)
            setups.append(setup)
            proc.stdin.write("exit\n")
            proc.stdin.flush()
            proc.wait(timeout=60.0)
        result, setup = _offline_phase(children, config, seconds=args.seconds)
        setups.append(setup)
        outcome.failures += offline_failures(result["outcomes"], specs)
        outcome.attempted = len(result["ops"])
        durations = {kind: [(end - begin) / 1e6 for begin, end, k in result["ops"] if k == kind] for kind in specs}
        work = sum(specs[k].n * specs[k].runs * specs[k].alpha for _, _, k in result["ops"])
        busy = sum(end - begin for begin, end, _ in result["ops"]) / 1e9
        primary = durations[workload.primary]
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["rss_mb"],
            "throughput_per_s": work / busy,
            "p50_ms": percentile(primary, 50.0),
            "tail_ms": percentile(primary, workload.tail),
            "secondary_p50_ms": percentile(durations[workload.secondary], 50.0),
        }
        outcome.notes.append(
            f"samples: {len(primary)} {workload.primary} runs, "
            f"{len(durations[workload.secondary])} {workload.secondary} runs; "
            f"{result['pool_processes']} pool workers; setups {', '.join(f'{s:.3f}' for s in setups)} s"
        )
        for kind, spec in specs.items():
            per_run = spec.n * spec.runs * spec.alpha / (percentile(durations[kind], 50.0) / 1e3)
            outcome.notes.append(f"{kind}_prounds_per_s {per_run:.1f} participant-rounds/s (median run)")
        _check_tail(outcome, workload, len(primary))
        return outcome
    plain, _ = _offline_phase(children, config, seconds=args.seconds / 2)
    traced, _ = _offline_phase(children, {**config, "trace": True}, seconds=0, ops=len(plain["ops"]))
    outcome.failures += offline_failures(
        {kind: plain["outcomes"][kind] + traced["outcomes"][kind] for kind in specs}, specs
    )
    outcome.attempted = len(plain["ops"]) + len(traced["ops"])
    spans = load_spans(traced["spans"])
    table = offline_table(spans, parent_pid=traced["pid"], windows=[traced["window"]], workers=workers)
    for kind in specs:
        windows = [(begin, end) for begin, end, k in traced["ops"] if k == kind]
        part = offline_table(spans, parent_pid=traced["pid"], windows=windows, workers=workers)
        outcome.tables.append(part.render(f"offline per-layer table, {kind} spec runs", _layers()))

    def busy(phase: dict) -> int:
        return sum(end - begin for begin, end, _ in phase["ops"])

    table.extras["trace.overhead"] = busy(traced) / busy(plain) - 1.0
    outcome.tables.append(table.render("offline per-layer table, whole traced phase", _layers()))
    outcome.metrics = table.metrics(_layers())
    _check_adds_up(outcome, table)
    return outcome


# -- serve -----------------------------------------------------------------------


def _serve_args(name: str, size: str) -> list[str]:
    args = ["serve", "--port", "0"]
    if name == "serve-join":
        for spec, (n, k) in JOIN_SPECS[size].items():
            args += ["--matchmaking-spec", f"name={spec},n={n},k={k},deadline_seconds=3600"]
    return args


def _start_server(
    children: Children, name: str, size: str, *, spans_path: "Path | None" = None
) -> tuple[subprocess.Popen, Any, float]:
    """Spawn a fresh server; set-up ends at the first ``/healthz`` 200 with the connections open."""
    from perfbench.loadgen import Client

    if spans_path is None:
        cmd = [sys.executable, "-m", "repro", *_serve_args(name, size)]
    else:
        launcher = ROOT / "perfbench" / "serve_launcher.py"
        cmd = [sys.executable, str(launcher), str(spans_path), *_serve_args(name, size)]
    started = time.perf_counter()
    proc = children.spawn(cmd, "server")
    banner = _read_line(proc, 60.0, "dygroups serve")
    port = int(banner.rsplit(":", 1)[1].split()[0])
    client = Client(port, os.cpu_count() or 1)
    status, _ = client.request("GET", "/healthz")
    if status != 200:
        raise BenchmarkError(f"/healthz answered {status}")
    return proc, client, time.perf_counter() - started


def _scripts(name: str, seed: int, size: str, connections: int) -> list:
    import numpy as np

    from perfbench.loadgen import JoinScript, RoundsScript

    rngs = [np.random.default_rng([seed, index]) for index in range(connections)]
    if name == "serve-rounds":
        slots, rounds, n, k = ROUNDS_SHAPE[size]
        return [RoundsScript(rng, slots=slots, rounds=rounds, n=n, k=k) for rng in rngs]
    return [
        JoinScript(rng, connection=index, specs=list(JOIN_SPECS[size]), lag=JOIN_LAG[size])
        for index, rng in enumerate(rngs)
    ]


def _serve_phase(
    children: Children,
    name: str,
    args: argparse.Namespace,
    *,
    seconds: "float | None" = None,
    counts: "Sequence[int] | None" = None,
    setups: int = 1,
    spans_path: "Path | None" = None,
) -> dict:
    """Set up ``setups`` times, drive the last server, check its outputs, stop it."""
    from perfbench.checks import join_failures, rounds_failures
    from perfbench.offline import vm_hwm_mb

    setup_times = []
    for index in range(setups):
        proc, client, setup = _start_server(children, name, args.size, spans_path=spans_path)
        setup_times.append(setup)
        if index < setups - 1:
            client.close()
            _stop(proc)
    scripts = _scripts(name, args.seed, args.size, len(client.connections))
    results = client.run(scripts, seconds=seconds, counts=counts)
    if client.peak_connections > client.limit or client.peak_threads > client.limit:
        raise BenchmarkError("the load generator exceeded nproc connections or threads")
    _, health = client.request("GET", "/healthz")
    if name == "serve-rounds":
        failures = rounds_failures(scripts, k=ROUNDS_SHAPE[args.size][3])
    else:
        _, snapshot = client.request("GET", "/v1/matchmaking")
        bodies = {}
        for state in snapshot["specs"].values():
            for cohort_id in state["cohorts"]:
                _, bodies[cohort_id] = client.request("GET", f"/v1/cohorts/{cohort_id}")
        failures = join_failures(scripts, snapshot, bodies)
    rss = vm_hwm_mb(proc.pid)
    client.close()
    _stop(proc)
    if proc.returncode != 0:
        raise BenchmarkError(f"dygroups serve exited with code {proc.returncode}")
    return {
        "results": results,
        "failures": failures,
        "setups": setup_times,
        "rss_mb": rss,
        "health": health,
    }


def _latencies(results: Sequence[Any], kind: str) -> list[float]:
    return [ns / 1e6 for result in results for k, ns, ok in result.samples if k == kind and ok]


def run_serve(args: argparse.Namespace, children: Children) -> Outcome:
    from perfbench.spans import Span, load_spans
    from perfbench.tables import percentile, serve_table

    workload = WORKLOADS[args.workload]
    outcome = Outcome()
    if not args.trace:
        phase = _serve_phase(children, workload.name, args, seconds=args.seconds, setups=SETUPS)
        results = phase["results"]
        outcome.failures = phase["failures"]
        outcome.attempted = sum(r.attempted for r in results)
        outcome.failed = sum(r.failed for r in results)
        wall = (max(r.end for r in results) - min(r.start for r in results)) / 1e9
        primary = _latencies(results, workload.primary)
        secondary = _latencies(results, workload.secondary)
        outcome.metrics = {
            "setup_s": statistics.median(phase["setups"]),
            "peak_rss_mb": phase["rss_mb"],
            "throughput_per_s": (outcome.attempted - outcome.failed) / wall,
            "p50_ms": percentile(primary, 50.0),
            "tail_ms": percentile(primary, workload.tail),
            "secondary_p50_ms": percentile(secondary, 50.0),
        }
        outcome.notes.append(
            f"samples: {len(primary)} {workload.primary}, {len(secondary)} {workload.secondary}; "
            f"{outcome.attempted} requests on {len(results)} connections; "
            f"setups {', '.join(f'{s:.3f}' for s in phase['setups'])} s; "
            f"cache {phase['health'].get('cache')}"
        )
        _check_tail(outcome, workload, len(primary))
        return outcome
    plain = _serve_phase(children, workload.name, args, seconds=args.seconds / 2)
    spans_path = children.rundir / "server-spans.json"
    counts = [r.attempted for r in plain["results"]]
    traced = _serve_phase(children, workload.name, args, counts=counts, spans_path=spans_path)
    for phase in (plain, traced):
        outcome.failures += phase["failures"]
        outcome.attempted += sum(r.attempted for r in phase["results"])
        outcome.failed += sum(r.failed for r in phase["results"])
    server_spans = load_spans(json.loads(spans_path.read_text()))
    client_spans = []
    for result in traced["results"]:
        for begin, end in result.client:
            client_spans.append(Span((0, len(client_spans)), None, "loadgen.client", begin, end, 0))
        for begin, end, kind in result.requests:
            client_spans.append(Span((0, len(client_spans)), None, "request", begin, end, 0, False, kind))
    results = traced["results"]
    basis = sum(r.end - r.start for r in results)
    window = (min(r.start for r in results), max(r.end for r in results))
    table = serve_table(client_spans, server_spans, basis_ns=basis, window=window)
    cache = traced["health"].get("cache") or {}
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    table.extras["serve.cache.hit_ratio"] = cache.get("hits", 0) / lookups if lookups else 0.0
    plain_basis = sum(r.end - r.start for r in plain["results"])
    table.extras["trace.overhead"] = basis / plain_basis - 1.0
    outcome.tables.append(table.render(f"{workload.name} per-layer table", _layers()))
    outcome.metrics = table.metrics(_layers())
    _check_adds_up(outcome, table)
    return outcome


# -- reporting -----------------------------------------------------------------


def _layers() -> tuple[str, ...]:
    from perfbench.layers import LAYERS

    return LAYERS


def _check_tail(outcome: Outcome, workload: Workload, samples: int) -> None:
    from perfbench.tables import beyond, supported

    if not supported(samples, workload.tail):
        outcome.notes.append(
            f"warning: p{workload.tail:g} of {samples} samples has only "
            f"{beyond(samples, workload.tail)} beyond it (10 needed); use longer runs"
        )


def _check_adds_up(outcome: Outcome, table: Any) -> None:
    if not table.adds_up(1e-6):
        outcome.failures.append(f"per-layer table sums to {table.summed_shares():.6f}, not 1")
    if table.unattributed_share > 0.10:
        outcome.notes.append(
            f"warning: unattributed share {table.unattributed_share:.3f} exceeds 0.10"
        )


def provenance(args: argparse.Namespace, workload: str) -> dict[str, Any]:
    """Seed, run settings and the host: git SHA, cores, Python, numpy, UTC time."""
    import numpy

    from repro.obs.provenance import provenance_stamp

    stamp = provenance_stamp(cwd=ROOT)
    stamp.update(
        cpu_count=os.cpu_count(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        workload=workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size,
    )
    return stamp


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    """Run one workload in fresh processes; print its report; return its result."""
    rundir = WORKDIR / f"run-{os.getpid()}-{args.workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    children = Children(rundir)
    runner = run_offline if args.workload == "offline" else run_serve
    try:
        outcome = runner(args, children)
    except Exception as error:
        # The run cannot finish: report why, with what the children logged.
        raise BenchmarkError(f"{args.workload}: {error!r}\n{children.stderr_tail()}") from error
    finally:
        children.stop_all()
        shutil.rmtree(rundir, ignore_errors=True)
    units = E2E_UNITS
    if args.trace:
        units = {name: per_layer_unit(name) for name in per_layer_names()}
        for name in units:
            # Ratios of mechanisms this workload never runs read zero.
            outcome.metrics.setdefault(name, 0)
    result = outcome.result(units)
    stamp = provenance(args, args.workload)
    workload = WORKLOADS[args.workload]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} size={args.size}")
    print(f"  why: {workload.why}")
    print(f"  leaves out: {'; '.join(workload.leaves_out)}")
    print("provenance " + json.dumps(stamp, sort_keys=True))
    for table in outcome.tables:
        print(table)
    if not args.trace:
        for name, unit in units.items():
            label = workload.labels.get(name, "")
            print(f"  {name:22s} {outcome.metrics[name]:16.4f} {unit:4s} {label}")
    errors = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(
        f"  attempted {result['attempted']}  succeeded {result['attempted'] - result['failed']}  "
        f"failed {result['failed']}  error_rate {errors:.4f}"
    )
    for note in outcome.notes:
        print(f"  {note}")
    for failure in outcome.failures[:20]:
        print(f"  FAILED CHECK: {failure}")
    archive = WORKDIR / "results" / f"{args.workload}-trace{args.trace}.json"
    archive.parent.mkdir(parents=True, exist_ok=True)
    archive.write_text(
        json.dumps({"provenance": stamp, "result": result, "notes": outcome.notes}, indent=1)
    )
    return result


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="The repository benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
        except BenchmarkError as error:
            print(f"perfbench: {error}", file=sys.stderr)
            return 1
    final = results[names[0]] if args.workload != "all" else results
    print(json.dumps(final))
    return 0 if all(result["correct"] for result in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
