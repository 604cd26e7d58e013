"""Serialization and data loading.

Interchange helpers so experiment artifacts survive a process:

* :func:`simulation_result_to_dict` / :func:`simulation_result_from_dict`
  — lossless JSON-able round-trip of a
  :class:`~repro.core.simulation.SimulationResult`;
* :func:`series_set_to_dict` / :func:`series_set_from_dict` — same for
  figure series;
* :func:`spec_outcome_to_dict` — one-way export of averaged experiment
  outcomes (the raw per-run results are reproducible from the spec seed);
* :func:`save_json` / :func:`load_json` — tiny file helpers;
* :func:`load_skills` — read an initial-skill vector from ``.json``
  (a list or ``{"skills": [...]}``), ``.csv`` / ``.txt`` (one value per
  line or comma-separated), used by the CLI's ``--skills-file``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro._validation import as_skill_array
from repro.core.grouping import Grouping
from repro.core.simulation import SimulationResult
from repro.experiments.runner import SpecOutcome
from repro.experiments.spec import ExperimentSpec
from repro.metrics.series import Series, SeriesSet
from repro.registry import PolicySpec

__all__ = [
    "experiment_spec_to_dict",
    "experiment_spec_from_dict",
    "simulation_result_to_dict",
    "simulation_result_from_dict",
    "series_set_to_dict",
    "series_set_from_dict",
    "spec_outcome_to_dict",
    "save_json",
    "load_json",
    "load_skills",
]


def simulation_result_to_dict(result: SimulationResult) -> dict[str, Any]:
    """Lossless JSON-able representation of a simulation result."""
    payload: dict[str, Any] = {
        "policy_name": result.policy_name,
        "mode_name": result.mode_name,
        "k": result.k,
        "alpha": result.alpha,
        "initial_skills": result.initial_skills.tolist(),
        "final_skills": result.final_skills.tolist(),
        "round_gains": result.round_gains.tolist(),
        "groupings": [[list(group) for group in grouping] for grouping in result.groupings],
    }
    if result.skill_history is not None:
        payload["skill_history"] = result.skill_history.tolist()
    if result.round_seconds is not None:
        payload["round_seconds"] = result.round_seconds.tolist()
    return payload


def simulation_result_from_dict(payload: dict[str, Any]) -> SimulationResult:
    """Inverse of :func:`simulation_result_to_dict`.

    Raises:
        KeyError: if a required field is missing.
        ValueError: if the stored groupings are not valid partitions.
    """
    history = payload.get("skill_history")
    round_seconds = payload.get("round_seconds")
    return SimulationResult(
        policy_name=payload["policy_name"],
        mode_name=payload["mode_name"],
        k=int(payload["k"]),
        alpha=int(payload["alpha"]),
        initial_skills=np.array(payload["initial_skills"], dtype=np.float64),
        final_skills=np.array(payload["final_skills"], dtype=np.float64),
        round_gains=np.array(payload["round_gains"], dtype=np.float64),
        groupings=tuple(Grouping(groups) for groups in payload["groupings"]),
        skill_history=np.array(history, dtype=np.float64) if history is not None else None,
        round_seconds=np.array(round_seconds, dtype=np.float64)
        if round_seconds is not None
        else None,
    )


def series_set_to_dict(series_set: SeriesSet) -> dict[str, Any]:
    """JSON-able representation of a figure's series."""
    return {
        "title": series_set.title,
        "x_label": series_set.x_label,
        "y_label": series_set.y_label,
        "series": [
            {"label": s.label, "x": list(s.x), "y": list(s.y)} for s in series_set.series
        ],
    }


def series_set_from_dict(payload: dict[str, Any]) -> SeriesSet:
    """Inverse of :func:`series_set_to_dict`."""
    return SeriesSet(
        title=payload["title"],
        x_label=payload["x_label"],
        y_label=payload["y_label"],
        series=tuple(
            Series(label=s["label"], x=tuple(s["x"]), y=tuple(s["y"]))
            for s in payload["series"]
        ),
    )


def experiment_spec_to_dict(spec: ExperimentSpec) -> dict[str, Any]:
    """JSON-able representation of an experiment spec (current form).

    Algorithms are stored as canonical registry spec strings (see
    :class:`repro.registry.PolicySpec`); the legacy ``lpa_max_evals``
    knob is written only when set, so specs that moved their budgets
    into spec params serialize without it.
    """
    payload: dict[str, Any] = {
        "n": spec.n,
        "k": spec.k,
        "alpha": spec.alpha,
        "rate": spec.rate,
        "mode": spec.mode,
        "distribution": spec.distribution,
        "algorithms": [PolicySpec.parse(entry).canonical() for entry in spec.algorithms],
        "runs": spec.runs,
        "seed": spec.seed,
        "engine": spec.engine,
        "workers": spec.workers,
    }
    if spec.lpa_max_evals is not None:
        payload["lpa_max_evals"] = spec.lpa_max_evals
    return payload


def experiment_spec_from_dict(payload: dict[str, Any]) -> ExperimentSpec:
    """Inverse of :func:`experiment_spec_to_dict`.

    Also reads the old on-disk form: plain algorithm names (no spec
    params), an always-present, possibly ``null`` ``lpa_max_evals`` key,
    the partition-count key of a removed engine path, which is dropped,
    and the removed ``"vectorized"`` engine value, which loads as
    ``"auto"``: both gave results bit-identical to the ``"auto"``
    engine's.  Missing keys fall back to the spec defaults.

    Raises:
        ValueError: if the stored configuration is invalid (unknown
            algorithm, bad param key/value, ...).
    """
    fields = dict(payload)
    fields.pop("format", None)
    fields.pop("shards", None)
    if fields.get("engine") == "vectorized":
        fields["engine"] = "auto"
    if "algorithms" in fields:
        fields["algorithms"] = tuple(fields["algorithms"])
    known = {
        "n", "k", "alpha", "rate", "mode", "distribution",
        "algorithms", "runs", "seed", "lpa_max_evals", "engine", "workers",
    }
    unknown = sorted(set(fields) - known)
    if unknown:
        raise ValueError(f"unknown experiment-spec keys {unknown}")
    return ExperimentSpec(**fields)


def spec_outcome_to_dict(outcome: SpecOutcome) -> dict[str, Any]:
    """JSON-able export of an averaged experiment outcome.

    One-way: the per-run raw results are reproducible by re-running the
    spec (its seed fully determines them), so only the spec and the
    aggregates are stored.
    """
    return {
        "spec": experiment_spec_to_dict(outcome.spec),
        "outcomes": {
            name: {
                "mean_total_gain": algo.mean_total_gain,
                "std_total_gain": algo.std_total_gain,
                "mean_round_gains": list(algo.mean_round_gains),
                "mean_runtime_seconds": algo.mean_runtime_seconds,
                "mean_round_seconds": list(algo.mean_round_seconds),
            }
            for name, algo in outcome.outcomes.items()
        },
    }


def save_json(payload: dict[str, Any], path: "str | Path") -> Path:
    """Write ``payload`` as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: "str | Path") -> dict[str, Any]:
    """Read a JSON object from ``path``.

    Raises:
        FileNotFoundError: if the file does not exist.
        ValueError: if the file does not hold a JSON object.
    """
    content = json.loads(Path(path).read_text())
    if not isinstance(content, dict):
        raise ValueError(f"{path} does not contain a JSON object")
    return content


def load_skills(path: "str | Path") -> np.ndarray:
    """Load an initial-skill vector from a ``.json``, ``.csv`` or ``.txt`` file.

    Accepted formats:

    * JSON: a bare list of numbers, or an object with a ``"skills"`` list;
    * CSV / TXT: numbers separated by commas and/or newlines; blank lines
      and lines starting with ``#`` are ignored.

    Returns a validated positive ``float64`` array.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"skills file not found: {path}")
    if path.suffix.lower() == ".json":
        content = json.loads(path.read_text())
        if isinstance(content, dict):
            if "skills" not in content:
                raise ValueError(f"{path}: JSON object must contain a 'skills' list")
            content = content["skills"]
        if not isinstance(content, list):
            raise ValueError(f"{path}: expected a JSON list of numbers")
        return as_skill_array(content, name=f"skills from {path.name}")
    values: list[float] = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for token in line.split(","):
            token = token.strip()
            if token:
                values.append(float(token))
    return as_skill_array(values, name=f"skills from {path.name}")
