"""The ``offline`` workload process: ``run_spec`` on the warm shared pool.

Started fresh for every set-up sample by ``perfbench/run.py`` with one
argument, a JSON config file.  It imports ``repro`` (and, when traced,
installs the layer wrappers before the pool forks), runs one untimed
full-size pass over both specs, prints ``ready`` and waits on stdin for
``exit`` or ``go SECONDS OPS``.  ``go`` alternates the star and clique
specs until ``SECONDS`` have passed (whole pairs) or ``OPS`` calls are done
(``0`` means no limit), then writes every call's interval and outcome,
the peak memory of the process and its pool workers, and the spans when
traced, to the config's ``result`` path.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

__all__ = ["SIZES", "outcome_fields", "specs_for", "vm_hwm_mb"]

#: Spec shapes per size: the largest point of Figs. 12/13, and a smoke size.
SIZES = {"full": {"n": 100_000, "runs": 10}, "smoke": {"n": 10_000, "runs": 4}}


def specs_for(seed: int, size: str) -> dict:
    """The star and clique specs of one run: DyGroups, k=5, α=5, r=0.5, log-normal."""
    from repro.experiments.spec import ExperimentSpec

    shape = SIZES[size]
    return {
        mode: ExperimentSpec(
            n=shape["n"],
            k=5,
            alpha=5,
            rate=0.5,
            mode=mode,
            distribution="lognormal",
            algorithms=("dygroups",),
            runs=shape["runs"],
            seed=seed,
        )
        for mode in ("star", "clique")
    }


def outcome_fields(outcome: Any) -> dict[str, Any]:
    """The gain fields of an ``AlgorithmOutcome`` (timings differ by design)."""
    return {
        "mean_total_gain": float(outcome.mean_total_gain),
        "std_total_gain": float(outcome.std_total_gain),
        "mean_round_gains": [float(g) for g in outcome.mean_round_gains],
    }


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def main(config_path: str) -> int:
    config = json.loads(Path(config_path).read_text())
    recorder = None
    if config["trace"]:
        from perfbench import layers
        from perfbench.spans import Recorder

        recorder = Recorder()
        layers.install(recorder)
    from repro.experiments import runner

    workers = config["workers"]
    specs = specs_for(config["seed"], config["size"])
    kinds = list(specs)
    for kind in kinds:
        runner.run_spec(specs[kind], workers=workers)
    if recorder is not None:
        recorder.spans.clear()
    print("ready", flush=True)
    command = sys.stdin.readline().split()
    if not command or command[0] != "go":
        return 0
    seconds, limit = float(command[1]), int(command[2])
    clock = time.perf_counter_ns
    ops: list[list] = []
    outcomes: dict[str, list] = {kind: [] for kind in kinds}
    started = clock()
    deadline = started + int(seconds * 1e9)
    while True:
        if limit and len(ops) >= limit:
            break
        if not limit and len(ops) % len(kinds) == 0 and clock() >= deadline:
            break
        kind = kinds[len(ops) % len(kinds)]
        begin = clock()
        outcome = runner.run_spec(specs[kind], workers=workers)
        end = clock()
        ops.append([begin, end, kind])
        outcomes[kind].append(outcome_fields(outcome.outcomes[specs[kind].algorithms[0]]))
        if recorder is not None:
            recorder.add("loadgen.client", end, clock())
    finished = clock()
    children = multiprocessing.active_children()
    result = {
        "pid": os.getpid(),
        "window": [started, finished],
        "ops": ops,
        "outcomes": outcomes,
        "rss_mb": vm_hwm_mb(os.getpid()) + sum(vm_hwm_mb(child.pid) for child in children),
        "pool_processes": len(children),
    }
    if recorder is not None:
        from perfbench.spans import dump_spans

        result["spans"] = dump_spans(recorder.spans)
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
