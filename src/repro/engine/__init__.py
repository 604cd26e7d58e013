"""The round-step engine: Algorithm 1's inner loop, implemented once.

Every layer of the reproduction advances cohorts by the same three-beat
round step — *propose* a grouping, *update* skills through the
interaction mode, *account* the round's learning gain — but the loop
used to live in four hand-written copies (the scalar simulator, the
stacked-trial simulator, the serving sessions, and the experiment
runner's fallbacks).  This package is the single implementation:

* :class:`~repro.engine.kernel.RoundKernel` — the scalar round step,
  carrying the observability spans, journal events, metrics, and
  runtime-contract hooks exactly once;
* :mod:`repro.engine.stacked` — the batched counterpart: one
  ``(R, n)`` round step advancing a whole stack of trials with a
  handful of vectorized numpy calls, plus the batched Star/Clique
  update kernels;
* :func:`~repro.engine.select.select_engine` — the one place that
  decides whether a ``(policy, mode, gain)`` combination runs the
  scalar or the vectorized path.

Drivers — :func:`repro.core.simulation.simulate`,
:func:`repro.core.vectorized.simulate_many`, the serving layer
(:mod:`repro.serve`), and the experiment runner — own looping, seeding,
and recording; the kernels own the step.  Bit-identity across drivers
is a hard design constraint, pinned by the hypothesis properties in
``tests/properties``.
"""

from repro.engine.kernel import RoundKernel, StepOutcome
from repro.engine.select import select_engine
from repro.engine.stacked import (
    StackedRoundKernel,
    update_clique_many,
    update_star_many,
)

__all__ = [
    "RoundKernel",
    "StackedRoundKernel",
    "StepOutcome",
    "select_engine",
    "update_clique_many",
    "update_star_many",
]
