"""Property-based pins for the unified engine: one round step everywhere.

The tentpole guarantee of :mod:`repro.engine` is that the three drivers
— scalar :func:`~repro.core.simulation.simulate`, stacked
:func:`~repro.core.vectorized.simulate_many`, and a served cohort — are
the *same* round step behind different front doors.  For every policy
the registry declares ``vectorizable`` (including the ``fair-star``
Section VII extension), a random instance must produce bit-identical
trajectories through all three, and the spec-string form of the policy
must land on the same trajectory as the programmatic build.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulation import simulate
from repro.core.vectorized import simulate_many
from repro.registry import POLICY_NAMES, build_policy, get_policy
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService

VECTORIZABLE = tuple(n for n in POLICY_NAMES if get_policy(n).vectorizable)


def _mode_for(name: str) -> str:
    return "clique" if name == "dygroups-clique" else "star"


@st.composite
def engine_instances(draw, max_group_size: int = 4, max_k: int = 3):
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    n = k * size
    values = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=100.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    skills = np.asarray(values, dtype=np.float64)
    rate = draw(st.floats(min_value=0.05, max_value=0.95))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return skills, k, rate, seed


@given(instance=engine_instances())
@settings(max_examples=15, deadline=None)
def test_every_vectorizable_policy_is_engine_invariant(instance):
    skills, k, rate, seed = instance
    assert "fair-star" in VECTORIZABLE  # the extension rides the same pin
    for name in VECTORIZABLE:
        mode = _mode_for(name)
        scalar = simulate(
            build_policy(name, mode=mode, rate=rate),
            skills, k=k, alpha=3, mode=mode, rate=rate, seed=seed,
        )
        batch = simulate_many(
            build_policy(name, mode=mode, rate=rate),
            skills[np.newaxis, :], k=k, alpha=3, mode=mode, rate=rate,
            seeds=[seed],
        )
        assert batch.engine == "vectorized"
        assert np.array_equal(batch.final_skills[0], scalar.final_skills)
        assert np.array_equal(batch.round_gains[0], scalar.round_gains)
        with GroupingService(ServeConfig(cache_size=16)) as svc:
            cohort = svc.create_cohort(
                {
                    "skills": skills.tolist(),
                    "k": k,
                    "mode": mode,
                    "rate": rate,
                    "policy": name,
                    "seed": seed,
                }
            )["cohort"]
            result = svc.advance_rounds(cohort, 3)
            served = np.array(svc.get_cohort(cohort)["skills"])
        assert np.array_equal(served, scalar.final_skills)
        assert result["total_gain"] == float(np.sum(scalar.round_gains))


@given(instance=engine_instances())
@settings(max_examples=15, deadline=None)
def test_spec_string_params_land_on_the_programmatic_trajectory(instance):
    skills, k, rate, seed = instance
    from repro.baselines.percentile import PercentilePartitions

    via_spec = simulate(
        build_policy("percentile:p=0.6", mode="star", rate=rate),
        skills, k=k, alpha=3, mode="star", rate=rate, seed=seed,
    )
    direct = simulate(
        PercentilePartitions(0.6),
        skills, k=k, alpha=3, mode="star", rate=rate, seed=seed,
    )
    assert np.array_equal(via_spec.final_skills, direct.final_skills)
    assert np.array_equal(via_spec.round_gains, direct.round_gains)

