"""Engine speedup — scalar vs vectorized engine, plus the parallel executor.

Not a paper figure: this bench characterizes the stacked-trial engine
(:mod:`repro.core.vectorized`) and the process-parallel executor
(:mod:`repro.experiments.parallel`) on one Figure-5b grid point
(``DYGROUPS-STAR-LOCAL``, Zipf skills, ``n=512, k=4, α=5``, 32 runs)
plus a full-size alpha sweep, archived as ``BENCH_core_speedup.json``:

* ``scalar`` / ``vectorized`` — the same 32-trial simulation stack
  through :func:`~repro.core.vectorized.simulate_many` with the engine
  forced, on pre-drawn skills, so the rows time the engines and nothing
  else.  The bench asserts the two engines' trajectories are
  bit-identical before reporting any throughput.
* ``parallel_cold`` — the full spec execution through a **fresh**
  :class:`~repro.experiments.parallel.WorkerPool` (fork + warmup
  included), the old per-call-executor semantics that archived the
  0.46× regression row.
* ``parallel_warm`` — the same spec through an **already-warm** pool,
  the production path.  The fork/warmup cost is paid once per sweep,
  not per call.
* ``sweep_serial`` / ``sweep_warm`` — a full (grid point × run) alpha
  sweep, serial vs streamed over the warm pool with shared-memory skill
  matrices.  This is the row the single grid point cannot provide: the
  fig05b point finishes in tens of milliseconds, so spawn cost swamps
  it; the sweep is large enough for compute to dominate.

Every parallel row is asserted bit-identical to its serial baseline
before any throughput is reported.  ``efficiency`` is speedup divided
by ``min(workers, cpu_count)`` — on a single-core host the pool cannot
exceed 1× and the honest target is parity, not ×workers.

Set ``REPRO_BENCH_SMOKE=1`` for a seconds-scale preset (the CI
perf-smoke job) that keeps every equality assertion but skips the
wall-clock floors, which only mean something at full size.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.core.dygroups import DyGroupsStar
from repro.core.vectorized import simulate_many
from repro.experiments.parallel import WorkerPool, run_spec_parallel, sweep_outcomes_parallel
from repro.experiments.runner import draw_skills, run_spec
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweep import sweep_outcomes

from benchmarks._util import emit

#: Seconds-scale preset for the CI perf-smoke job (equality checks only).
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

#: Figure-5b grid point; the smoke preset shrinks every axis.
N, K, ALPHA, RUNS = (60, 3, 3, 8) if SMOKE else (512, 4, 5, 32)

#: Alpha grid for the full-size sweep rows.
SWEEP_ALPHAS = (2, 3) if SMOKE else (3, 5, 7, 9)

#: Worker processes for the parallel rows.
WORKERS = 2 if SMOKE else max(2, min(8, os.cpu_count() or 1))

#: Cores the pool can actually occupy (speedup ÷ this = efficiency).
EFFECTIVE_WORKERS = min(WORKERS, os.cpu_count() or 1)

#: Vectorized-over-scalar trials/s floor asserted outside smoke mode.
#: The scalar baseline itself got ~1.6x faster when the groupers moved
#: to the trusted ``Grouping.from_members`` path, so the ratio floor is
#: lower than the 7x archived against the pre-refactor scalar engine —
#: the vectorized engine's absolute trials/s did not regress.  Sized
#: below the 3.9-4.6x run-to-run band this shared container produces.
SPEEDUP_FLOOR = 3.5

#: Warm-pool sweep efficiency floor (speedup ≥ this × effective cores).
#: Measured against the same faster scalar baseline; per-trial IPC is a
#: larger relative cost than it was pre-refactor.
POOL_EFFICIENCY_FLOOR = 0.7

#: Engine timing repetitions (wall-clock minimum is reported).
REPS = 2 if SMOKE else 5

SPEC = ExperimentSpec(
    n=N,
    k=K,
    alpha=ALPHA,
    runs=RUNS,
    seed=7,
    mode="star",
    distribution="zipf",
    algorithms=("dygroups",),
)


def _simulate_stack(stack: np.ndarray, seeds: "list[int]", engine: str):
    return simulate_many(
        DyGroupsStar(), stack, k=K, alpha=ALPHA, mode=SPEC.mode, rate=SPEC.rate,
        seeds=seeds, engine=engine,
    )


def _best_seconds(run, reps: int = REPS) -> float:
    """Minimum wall-clock seconds over ``reps`` executions of ``run()``."""
    seconds = []
    for _ in range(reps):
        started = time.perf_counter()
        run()
        seconds.append(time.perf_counter() - started)
    return min(seconds)


def _assert_outcomes_equal(serial, parallel) -> None:
    for name in SPEC.algorithms:
        base, algo = serial.outcomes[name], parallel.outcomes[name]
        assert algo.mean_total_gain == base.mean_total_gain
        assert algo.std_total_gain == base.std_total_gain
        assert algo.mean_round_gains == base.mean_round_gains


def bench_core_speedup(benchmark):
    stack = np.stack([draw_skills(SPEC, i) for i in range(RUNS)])
    seeds = [SPEC.seed + i for i in range(RUNS)]

    scalar_batch = _simulate_stack(stack, seeds, "scalar")
    vectorized_batch = _simulate_stack(stack, seeds, "vectorized")
    # Throughput is meaningless unless the engines are observationally
    # identical: same seeds, same float ops, bit-equal trajectories.
    assert np.array_equal(scalar_batch.final_skills, vectorized_batch.final_skills)
    assert np.array_equal(scalar_batch.round_gains, vectorized_batch.round_gains)

    scalar_s = benchmark.pedantic(
        _best_seconds, args=(lambda: _simulate_stack(stack, seeds, "scalar"),),
        iterations=1, rounds=1,
    )
    vectorized_s = _best_seconds(lambda: _simulate_stack(stack, seeds, "vectorized"))

    started = time.perf_counter()
    serial_outcome = run_spec(SPEC)
    serial_s = time.perf_counter() - started

    # Cold: fork + warmup + chunked execution, all on the clock — the
    # per-call policy this repo used when it archived the 0.46× row.
    started = time.perf_counter()
    with WorkerPool(WORKERS) as cold_pool:
        cold_outcome = run_spec_parallel(SPEC, workers=WORKERS, pool=cold_pool)
    cold_s = time.perf_counter() - started
    _assert_outcomes_equal(serial_outcome, cold_outcome)

    # Warm: the pool is forked and exercised before the clock starts, so
    # the row times only the streamed chunk execution.
    with WorkerPool(WORKERS) as pool:
        warm_outcome = run_spec_parallel(SPEC, workers=WORKERS, pool=pool)
        _assert_outcomes_equal(serial_outcome, warm_outcome)
        started = time.perf_counter()
        warm_outcome = run_spec_parallel(SPEC, workers=WORKERS, pool=pool)
        warm_s = time.perf_counter() - started
        _assert_outcomes_equal(serial_outcome, warm_outcome)

        # Full-size sweep: the grid × runs cross product streamed over
        # the same warm pool, shared-memory skill matrices and all.
        sweep_spec = SPEC.with_(workers=1)
        started = time.perf_counter()
        serial_sweep = sweep_outcomes(sweep_spec, "alpha", SWEEP_ALPHAS)
        sweep_serial_s = time.perf_counter() - started
        started = time.perf_counter()
        warm_sweep = sweep_outcomes_parallel(
            SPEC, "alpha", SWEEP_ALPHAS, workers=WORKERS, pool=pool
        )
        sweep_warm_s = time.perf_counter() - started
        for serial_point, warm_point in zip(serial_sweep, warm_sweep):
            _assert_outcomes_equal(serial_point, warm_point)

    sweep_trials = len(SWEEP_ALPHAS) * RUNS
    rows = {
        "scalar": {"seconds": scalar_s, "workers": 1, "basis": "engine", "trials": RUNS},
        "vectorized": {
            "seconds": vectorized_s, "workers": 1, "basis": "engine", "trials": RUNS,
        },
        "parallel_cold": {
            "seconds": cold_s, "workers": WORKERS, "basis": "run_spec", "trials": RUNS,
        },
        "parallel_warm": {
            "seconds": warm_s, "workers": WORKERS, "basis": "run_spec", "trials": RUNS,
        },
        "sweep_serial": {
            "seconds": sweep_serial_s, "workers": 1, "basis": "sweep",
            "trials": sweep_trials,
        },
        "sweep_warm": {
            "seconds": sweep_warm_s, "workers": WORKERS, "basis": "sweep",
            "trials": sweep_trials,
        },
    }
    for stats in rows.values():
        stats["trials_per_second"] = stats["trials"] / stats["seconds"]
    rows["scalar"]["speedup"] = 1.0
    rows["vectorized"]["speedup"] = (
        rows["vectorized"]["trials_per_second"] / rows["scalar"]["trials_per_second"]
    )
    rows["parallel_cold"]["speedup"] = serial_s / cold_s
    rows["parallel_warm"]["speedup"] = serial_s / warm_s
    rows["sweep_serial"]["speedup"] = 1.0
    rows["sweep_warm"]["speedup"] = sweep_serial_s / sweep_warm_s
    for name in ("parallel_cold", "parallel_warm", "sweep_warm"):
        rows[name]["efficiency"] = rows[name]["speedup"] / EFFECTIVE_WORKERS

    lines = [
        f"engine speedup: dygroups-star, n={N} k={K} alpha={ALPHA} runs={RUNS} "
        f"(zipf, seed={SPEC.seed}); sweep alphas={list(SWEEP_ALPHAS)}",
        f"workers={WORKERS}, effective cores={EFFECTIVE_WORKERS} "
        f"(host cpu_count={os.cpu_count()})",
        "",
        f"{'row':<14} {'basis':>8} {'workers':>7} {'trials':>7} {'seconds':>10} "
        f"{'trials/s':>10} {'speedup':>8}",
    ]
    for name, stats in rows.items():
        lines.append(
            f"{name:<14} {stats['basis']:>8} {stats['workers']:>7d} "
            f"{stats['trials']:>7d} {stats['seconds']:>10.4f} "
            f"{stats['trials_per_second']:>10.1f} {stats['speedup']:>7.2f}x"
        )
    lines += [
        "",
        "engine rows time simulate_many on pre-drawn skills; parallel rows time "
        "the full spec (draws included) against a serial baseline.",
        f"warm pool vs cold fork-per-call: {cold_s / warm_s:.2f}x on one spec; "
        f"sweep over warm pool: {rows['sweep_warm']['speedup']:.2f}x serial "
        f"({rows['sweep_warm']['efficiency']:.2f} efficiency per effective core).",
        "gain fields bit-identical across scalar/vectorized/cold/warm/sweep: yes",
    ]
    emit(
        "core_speedup",
        "\n".join(lines),
        config={
            "smoke": SMOKE,
            "n": N,
            "k": K,
            "alpha": ALPHA,
            "bench_runs": RUNS,
            "sweep_alphas": list(SWEEP_ALPHAS),
            "mode": SPEC.mode,
            "distribution": SPEC.distribution,
            "algorithms": list(SPEC.algorithms),
            "seed": SPEC.seed,
            "workers": WORKERS,
            "effective_workers": EFFECTIVE_WORKERS,
            "engines": rows,
            # Before/after of the warm worker pool on the same spec:
            # "before" forks a pool per call (the archived 0.46× row),
            # "after" reuses one warm pool across calls.
            "warm_pool": {
                "before_seconds": cold_s,
                "after_seconds": warm_s,
                "serial_seconds": serial_s,
                "cold_speedup": rows["parallel_cold"]["speedup"],
                "warm_speedup": rows["parallel_warm"]["speedup"],
                "sweep_serial_seconds": sweep_serial_s,
                "sweep_warm_seconds": sweep_warm_s,
                "sweep_speedup": rows["sweep_warm"]["speedup"],
                "sweep_efficiency": rows["sweep_warm"]["efficiency"],
            },
        },
    )

    if not SMOKE:
        speedup = rows["vectorized"]["speedup"]
        assert speedup >= SPEEDUP_FLOOR, (
            f"vectorized engine {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor"
        )
        assert warm_s <= cold_s, (
            f"warm pool ({warm_s:.3f}s) should not lose to a cold fork ({cold_s:.3f}s)"
        )
        efficiency = rows["sweep_warm"]["efficiency"]
        assert efficiency >= POOL_EFFICIENCY_FLOOR, (
            f"warm-pool sweep efficiency {efficiency:.2f} below the "
            f"{POOL_EFFICIENCY_FLOOR} floor ({EFFECTIVE_WORKERS} effective cores)"
        )
