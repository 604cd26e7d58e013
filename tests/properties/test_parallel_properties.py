"""Property-based tests for warm-pool execution bit-identity.

The contract: chunking randomized specs over a persistent warm worker
pool changes nothing about any gain field.  Per-run seeds are
``spec.seed + i`` either way, so serial and warm-pool execution must
agree exactly.

One warm shared pool serves every example: that is precisely the
reuse pattern the pool exists for, and it keeps the property affordable
(forking per example would dominate the run).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.parallel import shared_pool, shutdown_shared_pool
from repro.experiments.runner import run_spec
from repro.experiments.spec import ExperimentSpec


@pytest.fixture(scope="module")
def warm_pool():
    pool = shared_pool(2)
    pool.ensure()
    yield pool
    shutdown_shared_pool()


@st.composite
def small_specs(draw):
    k = draw(st.integers(min_value=2, max_value=4))
    size = draw(st.integers(min_value=2, max_value=5))
    return ExperimentSpec(
        n=k * size,
        k=k,
        alpha=draw(st.integers(min_value=1, max_value=3)),
        runs=draw(st.integers(min_value=2, max_value=5)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        algorithms=("dygroups", "random"),
    )


def gains_of(outcome):
    return {
        name: (o.mean_total_gain, o.std_total_gain, o.mean_round_gains)
        for name, o in outcome.outcomes.items()
    }


@given(spec=small_specs())
@settings(max_examples=8, deadline=None)
def test_warm_pool_equals_serial(warm_pool, spec):
    serial = run_spec(spec)
    pooled = run_spec(spec, workers=2)
    assert shared_pool(2) is warm_pool
    assert gains_of(pooled) == gains_of(serial)
