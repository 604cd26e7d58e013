"""Correctness checks run after every timed phase (outside the timing).

* ``offline`` — every timed outcome is bit-identical to the scalar engine
  (``engine="scalar"``, one process) on the same spec.
* ``serve-rounds`` — every served round's gain and groups, and each
  finished cohort's round gains and final skills, are bit-identical to an
  offline ``simulate()`` replay with the same skills, k, mode and seed.
* ``serve-join`` — each condensed cohort holds exactly the participants
  reported matched to it, in (−skill, arrival) order, with seed
  ``spec.seed + i``; cohorts and the pending pool account for every join.

Each function returns one message per failed check.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from perfbench.loadgen import JoinScript, RoundsScript
from perfbench.offline import outcome_fields

__all__ = ["join_failures", "offline_failures", "rounds_failures"]

#: The learning rate the serve workloads leave at its default.
SERVED_RATE = 0.5


def offline_failures(outcomes: Mapping[str, Sequence[dict]], specs: Mapping[str, Any]) -> list[str]:
    """Compare each timed outcome of each spec with the scalar engine's."""
    from repro.experiments.runner import run_spec

    failures = []
    for kind, observed in outcomes.items():
        spec = specs[kind]
        reference = run_spec(spec.with_(engine="scalar", workers=1)).outcomes[spec.algorithms[0]]
        expected = outcome_fields(reference)
        for index, fields in enumerate(observed):
            if fields != expected:
                failures.append(
                    f"offline {kind} run {index}: {fields} differs from the scalar engine's {expected}"
                )
    return failures


def rounds_failures(scripts: Sequence[RoundsScript], *, k: int) -> list[str]:
    """Replay every served cohort offline and compare it round by round."""
    from repro.core.simulation import simulate
    from repro.registry import PolicySpec, build_policy

    failures = []
    for script in scripts:
        for cohort in script.cohorts:
            if not cohort.played:
                continue
            policy = build_policy(PolicySpec.parse("dygroups"), mode=cohort.mode, rate=SERVED_RATE)
            replay = simulate(
                policy,
                np.array(cohort.skills, dtype=np.float64),
                k=k,
                alpha=len(cohort.played),
                mode=cohort.mode,
                rate=SERVED_RATE,
                seed=cohort.seed,
                record_groupings=True,
            )
            gains = [float(g) for g in replay.round_gains]
            groups = [[list(map(int, group)) for group in grouping] for grouping in replay.groupings]
            if [gain for gain, _ in cohort.played] != gains:
                failures.append(f"cohort {cohort.id}: served gains differ from simulate()")
            if [played for _, played in cohort.played] != groups:
                failures.append(f"cohort {cohort.id}: served groups differ from simulate()")
            final = cohort.final
            if final is not None and (
                final["round_gains"] != gains
                or final["skills"] != [float(s) for s in replay.final_skills]
                or final["seed"] != cohort.seed
                or final["mode"] != cohort.mode
            ):
                failures.append(f"cohort {cohort.id}: GET trajectory differs from simulate()")
    return failures


def join_failures(
    scripts: Sequence[JoinScript],
    snapshot: Mapping[str, Any],
    cohorts: Mapping[str, Mapping[str, Any]],
) -> list[str]:
    """Check condensed cohorts against the joins and reports the scripts saw.

    ``snapshot`` is ``GET /v1/matchmaking``; ``cohorts`` maps every
    condensed cohort id to its ``GET /v1/cohorts/{id}`` body.
    """
    failures: list[str] = []
    owner: dict[tuple[str, float], str] = {}
    admitted: dict[str, int] = {}
    for script in scripts:
        for participant, spec, skill in script.joined:
            if (spec, skill) in owner:
                failures.append(f"skill {skill!r} was drawn twice; membership is ambiguous")
            owner[(spec, skill)] = participant
            admitted[spec] = admitted.get(spec, 0) + 1
    placed: dict[str, tuple[str, int]] = {}
    for name, state in snapshot["specs"].items():
        matched = 0
        for index, cohort_id in enumerate(state["cohorts"]):
            body = cohorts[cohort_id]
            skills = body["skills"]
            matched += len(skills)
            expected = (state["seed"] + index, state["n"], state["k"], state["mode"], 0)
            observed = (body["seed"], body["n"], body["k"], body["mode"], body["rounds"])
            if observed != expected:
                failures.append(f"{name} cohort {index} ({cohort_id}): {observed} != {expected}")
            if any(a < b for a, b in zip(skills, skills[1:])):
                failures.append(f"{name} cohort {cohort_id}: members not in descending skill order")
            for member, skill in enumerate(skills):
                participant = owner.get((name, skill))
                if participant is None:
                    failures.append(f"{name} cohort {cohort_id}: member {member} never joined {name}")
                elif participant in placed:
                    failures.append(f"{participant} sits in {placed[participant][0]} and {cohort_id}")
                else:
                    placed[participant] = (cohort_id, member)
        if matched + state["pending"] != admitted.get(name, 0):
            failures.append(
                f"{name}: {matched} matched + {state['pending']} pending != "
                f"{admitted.get(name, 0)} admitted"
            )
    order = {
        cohort_id: index
        for state in snapshot["specs"].values()
        for index, cohort_id in enumerate(state["cohorts"])
    }
    for script in scripts:
        for participant, (status, cohort_id, member) in script.reports.items():
            if status == "matched" and placed.get(participant) != (cohort_id, member):
                failures.append(
                    f"{participant} reported matched to {cohort_id}[{member}] "
                    f"but sits at {placed.get(participant)}"
                )
        last: dict[str, float] = {}
        for participant, spec, _ in script.joined:
            position = placed.get(participant)
            rank = float("inf") if position is None else order[position[0]]
            if rank < last.get(spec, -1.0):
                failures.append(f"{participant} condensed before an earlier join of its connection")
            last[spec] = rank
    return failures
