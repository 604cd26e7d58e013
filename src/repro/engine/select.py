"""Engine selection: one place decides scalar vs vectorized.

Every driver that can run a policy on either engine — the stacked-trial
simulator, the experiment runner, the process-parallel executor — used
to repeat the same scattered checks (is the policy vectorizable? does
the mode's batched update exist for this gain function? what did the
user force?).  :func:`select_engine` is the single decision:

* a policy vectorizes when :func:`repro.core.vectorized.vectorize_policy`
  (which consults the unified registry for extension policies) yields a
  batched counterpart;
* the batched *update* exists for Star under any elementwise gain, and
  for Clique only under linear gains (Theorem 3's closed form);
* the ``engine`` flag (``"auto"`` / ``"scalar"`` / ``"vectorized"``)
  resolves preference vs requirement: ``auto`` falls back silently,
  ``"vectorized"`` raises when unavailable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.gain_functions import GainFunction
from repro.core.interactions import InteractionMode, get_mode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.simulation import GroupingPolicy
    from repro.core.vectorized import VectorizedPolicy

__all__ = ["ENGINES", "select_engine"]

#: Engine selectors accepted by :func:`select_engine`,
#: :func:`repro.core.vectorized.simulate_many`, and the experiment
#: layer: ``"auto"`` picks the best available path, the other two
#: force one.
ENGINES: tuple[str, ...] = ("auto", "scalar", "vectorized")


def select_engine(
    policy: "GroupingPolicy",
    *,
    mode: "str | InteractionMode",
    gain: GainFunction,
    engine: str = "auto",
) -> "tuple[str, VectorizedPolicy | None]":
    """Resolve which engine a ``(policy, mode, gain)`` combination runs.

    Args:
        policy: the scalar grouping policy.
        mode: interaction mode (name or instance).
        gain: the learning-gain function.
        engine: ``"auto"`` (vectorize when the policy and mode allow,
            scalar otherwise), ``"scalar"`` (force the per-trial path),
            or ``"vectorized"`` (raise if not vectorizable).

    Returns:
        ``("vectorized", vec)`` with the batched policy, or
        ``("scalar", None)``.

    Raises:
        ValueError: for an unknown engine flag, or a forcing flag whose
            path does not exist for the combination.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    resolved_mode = get_mode(mode)
    if engine == "scalar":
        return "scalar", None
    # The import stays local: core.vectorized itself builds on this
    # module, and vectorize_policy pulls in the baselines.
    from repro.core.vectorized import vectorize_policy

    vec = vectorize_policy(policy)
    # Clique needs Theorem 3's closed form, which only exists for linear
    # gain functions; Star vectorizes for any elementwise gain.
    updatable = resolved_mode.name == "star" or gain.is_linear
    if vec is not None and updatable:
        return "vectorized", vec
    if engine == "vectorized":
        reason = (
            f"policy {policy.name!r} has no vectorized form"
            if vec is None
            else f"mode {resolved_mode.name!r} requires a linear gain function to vectorize"
        )
        raise ValueError(f"engine='vectorized' is not available: {reason}")
    return "scalar", None
