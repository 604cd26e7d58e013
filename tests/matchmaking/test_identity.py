"""Property: condensed cohorts are bit-identical to directly created ones.

The acceptance claim of the matchmaking layer — streaming admission must
not change the math.  For a random skill multiset, arrival order, and
spec, the cohort the matchmaker condenses equals (gain for gain, skill
for skill) both a direct ``POST /v1/cohorts`` carrying the same member
list and an offline :func:`repro.core.simulation.simulate` run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simulation import simulate
from repro.registry import build_policy
from repro.serve.config import ServeConfig
from repro.serve.service import GroupingService


@st.composite
def matchmaking_instances(draw, max_k: int = 3, max_group_size: int = 3):
    """A random spec, skill multiset, and arrival order (ties common)."""
    k = draw(st.integers(min_value=1, max_value=max_k))
    size = draw(st.integers(min_value=2, max_value=max_group_size))
    n = k * size
    # Draw skills from a tiny value pool so rank ties are the norm.
    pool = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=20.0, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=4,
        )
    )
    skills = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    order = draw(st.permutations(range(n)))
    spec = {
        "n": n,
        "k": k,
        "policy": draw(st.sampled_from(["dygroups", "percentile:p=0.9"])),
        "mode": draw(st.sampled_from(["star", "clique"])),
        "rate": draw(st.sampled_from([0.3, 0.5, 0.8])),
        "seed": draw(st.integers(min_value=0, max_value=50)),
        "deadline_seconds": 3600.0,
    }
    rounds = draw(st.integers(min_value=1, max_value=3))
    return spec, skills, order, rounds


@given(instance=matchmaking_instances())
@settings(max_examples=40, deadline=None)
def test_condensed_cohort_is_bit_identical_to_direct_and_offline(instance):
    """Streaming admission is a pure re-ordering: same members, same math."""
    spec, skills, order, rounds = instance
    service = GroupingService(
        ServeConfig(matchmaking={"specs": [spec], "tick_interval": None})
    )
    try:
        for index in order:
            joined = service.join({"skill": skills[index]})
        assert joined["status"] == "matched"
        condensed_id = joined["cohort"]

        # The matched member list, in canonical (-skill, arrival) order.
        member_skills = service.get_cohort(condensed_id)["skills"]
        assert sorted(member_skills) == sorted(skills)

        direct = service.create_cohort(
            {
                "skills": member_skills,
                "k": spec["k"],
                "mode": spec["mode"],
                "rate": spec["rate"],
                "policy": spec["policy"],
                "seed": spec["seed"],
            }
        )
        streamed = service.advance_rounds(condensed_id, rounds)
        direct_run = service.advance_rounds(direct["cohort"], rounds)
        assert streamed["total_gain"] == direct_run["total_gain"]
        assert [r["gain"] for r in streamed["played"]] == [
            r["gain"] for r in direct_run["played"]
        ]
        assert [r["groups"] for r in streamed["played"]] == [
            r["groups"] for r in direct_run["played"]
        ]
        final_streamed = service.get_cohort(condensed_id)["skills"]
        assert final_streamed == service.get_cohort(direct["cohort"])["skills"]

        reference = simulate(
            build_policy(spec["policy"], mode=spec["mode"], rate=spec["rate"]),
            np.asarray(member_skills, dtype=np.float64),
            k=spec["k"],
            alpha=rounds,
            mode=spec["mode"],
            rate=spec["rate"],
            seed=spec["seed"],
        )
        assert np.array_equal(
            np.asarray(final_streamed), reference.final_skills
        )
        assert [r["gain"] for r in streamed["played"]] == [
            float(g) for g in reference.round_gains
        ]
    finally:
        service.close()
