"""Shared helpers for the benchmark harness.

Every bench regenerates one table/figure of the paper (see DESIGN.md §3),
prints the series, and archives them under ``benchmarks/results/`` so the
numbers behind EXPERIMENTS.md are reproducible artifacts.  Each
:func:`emit` writes two files:

* ``<name>.txt`` — the human-readable series (unchanged format);
* ``BENCH_<name>.json`` — a machine-readable perf artifact: bench
  config, the metrics-registry snapshot accumulated during the bench
  (per-round timing summaries with their bounded bucket counts,
  round/interaction counters), and totals — so the perf trajectory
  across PRs can be charted from these files.

Artifacts are **append-archived**, never silently replaced: each emit
folds the previous ``BENCH_<name>.json`` payload (minus its own history)
into a bounded ``history`` list, newest first — so regression rows (like
the 0.46× parallel / 0.60× batched-serve archives this repo once
recorded) stay readable next to the rows that fixed them.

Bench sizing: pure-Python substrate, so the default grids are one decade
below the paper's C++ runs.  Set ``REPRO_BENCH_FULL=1`` to use the
paper-sized grids (slow).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.obs import runtime as _obs
from repro.obs.provenance import provenance_stamp

RESULTS_DIR = Path(__file__).parent / "results"

#: Whether to run the paper-sized grids.
FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Runs to average per configuration in bench mode (paper uses 10).
BENCH_RUNS = 10 if FULL else 2

#: Schema version of the BENCH_<name>.json artifacts.
#: v2 added the provenance block (git SHA, UTC timestamp, host info).
#: v3 added the ``history`` list: prior payloads archived newest-first.
BENCH_JSON_SCHEMA = 3

#: Prior payloads retained in each artifact's ``history`` list.
BENCH_HISTORY_KEEP = 8

# Collect per-round timings and counters for the JSON artifacts
# (metrics-only: no journal, no tracing, no logging).
_obs.enable_metrics()


def metrics_snapshot() -> dict[str, Any]:
    """Snapshot of the global metrics registry (what emit() archives)."""
    return _obs.metrics_registry().snapshot()


def emit(name: str, text: str, *, config: "dict[str, Any] | None" = None) -> None:
    """Print a result block and archive it under ``benchmarks/results/``.

    Writes ``<name>.txt`` plus ``BENCH_<name>.json`` (see module
    docstring), then drains the metrics registry so each bench's JSON
    reflects only its own run.  The previous JSON payload — when one
    exists and parses — is archived (minus its own ``history``) at the
    head of the new payload's ``history`` list, bounded to
    :data:`BENCH_HISTORY_KEEP` entries, so old rows are never lost to a
    re-run.
    """
    banner = f"\n{'=' * 72}\n[{name}]\n{'=' * 72}"
    print(banner)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    json_path = RESULTS_DIR / f"BENCH_{name}.json"
    history: list[dict[str, Any]] = []
    if json_path.exists():
        try:
            previous = json.loads(json_path.read_text())
        except (json.JSONDecodeError, OSError):
            previous = None
        if isinstance(previous, dict):
            history = [entry for entry in previous.pop("history", []) if isinstance(entry, dict)]
            history.insert(0, previous)
            history = history[:BENCH_HISTORY_KEEP]

    snapshot = metrics_snapshot()
    counters = snapshot.get("counters", {})
    round_timer = snapshot.get("timers", {}).get("core.round_seconds", {})
    payload = {
        "schema": BENCH_JSON_SCHEMA,
        "name": name,
        "provenance": provenance_stamp(cwd=Path(__file__).parent),
        "config": {"full": FULL, "runs": BENCH_RUNS, **(config or {})},
        "metrics": snapshot,
        "totals": {
            "rounds": counters.get("core.rounds", {}).get("value", 0),
            "interactions": counters.get("core.interactions", {}).get("value", 0),
            "simulations": counters.get("experiments.simulations", {}).get("value", 0),
            "round_seconds_total": round_timer.get("total", 0.0),
            "round_seconds_mean": round_timer.get("mean", 0.0),
        },
        "history": history,
    }
    json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _obs.metrics_registry().reset()
