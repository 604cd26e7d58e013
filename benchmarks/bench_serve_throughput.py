"""Serving-layer throughput — closed-loop load against the in-process server.

Not a paper figure: this bench characterizes the :mod:`repro.serve`
subsystem added for production-style deployment.  A closed-loop load
generator (client threads, each running ``create → advance×R →
inspect`` loops against one :class:`~repro.serve.service.GroupingService`
through the in-process client) reports requests/second, p50/p95 request
latency, and the grouping-memo hit rate, archived as
``BENCH_serve_throughput.json``.  The in-process client is deliberate:
the numbers measure the service (sessions + cache + scheduler), not
socket syscalls.

Workloads:

* ``replay`` — every client replays the same cohort configuration, the
  memo's best case (hits dominate after warmup);
* ``adaptive`` — distinct skills per cohort (all cache misses) through
  the **adaptive** scheduler: a round step is stacked into a batched
  ``propose_batch → apply_update_many`` wave only when a same-shape
  cohort is in flight at the same moment; a lone step falls through to
  the inline kernel (``serve.scheduler.step_inline_fallthrough``);
* ``inline`` — the same load with ``workers=0``, every round stepped
  through the scalar kernel on the caller thread (the before side);
* ``inline_heavy`` / ``adaptive_heavy`` — the same pair under heavy
  fan-in (``HEAVY_CLIENTS`` threads), where same-shape overlap is
  common and waves actually stack.

On a multi-core host the heavy tier is where batching pulls ahead (the
wave kernel releases the GIL into one vectorized update while client
threads keep queueing).  On a single core the scheduler's parallelism
gate keeps waves OFF entirely — the wave's serial handoff costs double
the per-round price there, so every step falls through to the inline
kernel — and the honest target is *parity with inline*, which is
exactly the win over the archived 0.60× unconditional-batching
regression.

The adaptive-vs-inline pairs are the before/after of round-step
batching, archived under ``config.batched_round_step`` (4-client tier)
and ``config.adaptive_batching`` (both tiers).
"""

from __future__ import annotations

import os
import threading
import time
from math import fsum

import numpy as np

from repro.serve.client import InProcessClient
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService

from benchmarks._util import FULL, emit, metrics_snapshot

#: Closed-loop client threads.
CLIENTS = 8 if FULL else 4

#: Client threads for the heavy fan-in tier.
HEAVY_CLIENTS = 64

#: Cohort create→advance→inspect loops per client.
LOOPS = 60 if FULL else 12

#: Loops per client in the heavy tier (64× the threads, so fewer loops).
HEAVY_LOOPS = 6 if FULL else 2

#: Rounds advanced per cohort loop.
ROUNDS = 6

#: Cohort size / groups for the load shape.
N, K = 120, 10


def _scheduler_counters() -> tuple[int, float, int, int]:
    """(batches, summed batch size, recorded batches, inline fall-throughs)."""
    snapshot = metrics_snapshot()
    counters = snapshot.get("counters", {})
    batches = counters.get("serve.scheduler.step_batches", {}).get("value", 0)
    fallthrough = (
        counters.get("serve.scheduler.step_inline_fallthrough", {}).get("value", 0)
    )
    sizes = snapshot.get("histograms", {}).get("serve.scheduler.step_batch_size", {})
    return batches, sizes.get("total", 0.0), sizes.get("count", 0), fallthrough


def _run_workload(
    unique_skills: bool,
    *,
    workers: int = 4,
    clients: int = CLIENTS,
    loops: int = LOOPS,
) -> dict[str, float]:
    """Drive the closed loop and return throughput/latency/hit-rate stats."""
    base = np.random.default_rng(42).uniform(1.0, 10.0, size=N)
    latencies: list[float] = []
    lock = threading.Lock()
    batches_before, size_total_before, size_count_before, fall_before = (
        _scheduler_counters()
    )

    config = ServeConfig(workers=workers, cache_size=512)
    with GroupingService(config) as service:
        client = InProcessClient(service)

        def loop(worker: int) -> None:
            rng = np.random.default_rng(worker)
            local: list[float] = []
            for i in range(loops):
                skills = (
                    rng.uniform(1.0, 10.0, size=N) if unique_skills else base
                ).tolist()
                begin = time.perf_counter()
                cohort = client.create_cohort(skills, K, mode="star", seed=7)["cohort"]
                client.advance_rounds(cohort, ROUNDS)
                client.get_cohort(cohort)
                client.delete_cohort(cohort)
                local.append(time.perf_counter() - begin)
            with lock:
                latencies.extend(local)

        threads = [threading.Thread(target=loop, args=(w,)) for w in range(clients)]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
        cache_stats = service.cache.stats()

    ordered = sorted(latencies)
    requests = len(latencies) * 4  # create + advance + inspect + delete
    probes = cache_stats["hits"] + cache_stats["misses"]
    batches_after, size_total_after, size_count_after, fall_after = (
        _scheduler_counters()
    )
    step_batches = batches_after - batches_before
    recorded = size_count_after - size_count_before
    return {
        "clients": clients,
        "loops": loops,
        "requests": requests,
        "wall_seconds": wall,
        "req_per_second": requests / wall,
        "loop_p50_ms": 1e3 * ordered[len(ordered) // 2],
        "loop_p95_ms": 1e3 * ordered[int(len(ordered) * 0.95)],
        "loop_mean_ms": 1e3 * fsum(ordered) / len(ordered),
        "cache_hit_rate": cache_stats["hits"] / probes if probes else 0.0,
        "step_batches": step_batches,
        "step_batch_mean": (
            (size_total_after - size_total_before) / recorded if recorded else 0.0
        ),
        "inline_fallthrough": fall_after - fall_before,
    }


def bench_serve_throughput(benchmark):
    replay = benchmark.pedantic(
        _run_workload, args=(False,), iterations=1, rounds=1
    )
    adaptive = _run_workload(True)
    inline = _run_workload(True, workers=0)
    inline_heavy = _run_workload(True, workers=0, clients=HEAVY_CLIENTS, loops=HEAVY_LOOPS)
    adaptive_heavy = _run_workload(True, clients=HEAVY_CLIENTS, loops=HEAVY_LOOPS)

    rows = (
        ("replay", replay),
        ("adaptive", adaptive),
        ("inline", inline),
        ("inline_heavy", inline_heavy),
        ("adaptive_heavy", adaptive_heavy),
    )
    lines = [
        f"closed-loop load: n={N}, k={K}, {ROUNDS} rounds/cohort; "
        f"standard tier {CLIENTS} clients x {LOOPS} loops, "
        f"heavy tier {HEAVY_CLIENTS} clients x {HEAVY_LOOPS} loops",
        "",
        f"{'workload':<15} {'clients':>7} {'req/s':>10} {'p50 ms':>10} {'p95 ms':>10} "
        f"{'hit rate':>9} {'batches':>8} {'inline':>7}",
    ]
    for name, stats in rows:
        lines.append(
            f"{name:<15} {stats['clients']:>7d} {stats['req_per_second']:>10.1f} "
            f"{stats['loop_p50_ms']:>10.2f} {stats['loop_p95_ms']:>10.2f} "
            f"{stats['cache_hit_rate']:>9.2%} {stats['step_batches']:>8d} "
            f"{stats['inline_fallthrough']:>7d}"
        )
    speedup = adaptive["req_per_second"] / inline["req_per_second"]
    heavy_speedup = adaptive_heavy["req_per_second"] / inline_heavy["req_per_second"]
    lines += [
        "",
        f"adaptive round steps vs inline: {speedup:.2f}x req/s at {CLIENTS} clients "
        f"({adaptive['step_batches']} waves, "
        f"{adaptive['inline_fallthrough']} inline fall-throughs), "
        f"{heavy_speedup:.2f}x at {HEAVY_CLIENTS} clients "
        f"({adaptive_heavy['step_batches']} waves, "
        f"mean {adaptive_heavy['step_batch_mean']:.2f} cohorts/wave)",
    ]
    emit(
        "serve_throughput",
        "\n".join(lines),
        config={
            "clients": CLIENTS,
            "heavy_clients": HEAVY_CLIENTS,
            "loops": LOOPS,
            "heavy_loops": HEAVY_LOOPS,
            "rounds": ROUNDS,
            "n": N,
            "k": K,
            "replay": replay,
            "adaptive": adaptive,
            "inline": inline,
            "inline_heavy": inline_heavy,
            "adaptive_heavy": adaptive_heavy,
            # Before/after of scheduler round-step batching on the same
            # cache-miss load: "before" steps every cohort through the
            # scalar kernel inline, "after" stacks same-shape cohorts
            # into propose_batch → apply_update_many waves when — and
            # only when — a same-shape backlog exists at drain time.
            "batched_round_step": {
                "before_req_per_second": inline["req_per_second"],
                "after_req_per_second": adaptive["req_per_second"],
                "speedup": speedup,
                "step_batches": adaptive["step_batches"],
                "step_batch_mean": adaptive["step_batch_mean"],
                "inline_fallthrough": adaptive["inline_fallthrough"],
            },
            "adaptive_batching": {
                "standard_speedup": speedup,
                "heavy_speedup": heavy_speedup,
                "heavy_step_batches": adaptive_heavy["step_batches"],
                "heavy_step_batch_mean": adaptive_heavy["step_batch_mean"],
            },
        },
    )

    # The replay workload must actually exercise the memo: after the first
    # trajectory is cached, every later cohort replays it bit for bit.
    assert replay["cache_hit_rate"] > 0.5, "replay workload should be cache-dominated"
    # The unique workload computes every proposal fresh.
    assert adaptive["cache_hit_rate"] < 0.1
    assert replay["requests"] == CLIENTS * LOOPS * 4
    # The workerless baseline must bypass the scheduler entirely.
    assert inline["step_batches"] == 0 and inline["inline_fallthrough"] == 0
    # The adaptive scheduler must answer lone steps inline; waves are
    # gated on real parallelism (min(workers, cpu_count) > 1), so the
    # heavy tier stacks waves exactly when the host can amortize them.
    assert adaptive["inline_fallthrough"] > 0
    if min(4, os.cpu_count() or 1) > 1:
        assert adaptive_heavy["step_batches"] > 0, (
            "heavy fan-in should produce batched waves on a multi-core host"
        )
    else:
        assert adaptive_heavy["step_batches"] == 0, (
            "the parallelism gate should keep waves off on a single core"
        )
    if os.environ.get("REPRO_BENCH_SMOKE", "0") != "1":
        # The performance contract: adaptive batching must win back the
        # archived 0.60x regression: parity with inline at both tiers —
        # the 0.8 floor absorbs closed-loop load-generator noise on a
        # shared single-core container (run-to-run spread is +/-25%).
        assert speedup >= 0.8, f"adaptive vs inline at {CLIENTS} clients: {speedup:.2f}x"
        assert heavy_speedup >= 0.8, (
            f"adaptive vs inline at {HEAVY_CLIENTS} clients: {heavy_speedup:.2f}x"
        )
