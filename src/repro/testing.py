"""Test and benchmark oracles.

:func:`repro.runtime.run` sends every dense-model GuanYu scenario to the
vectorised engine, so an assertion of the form "batched == ``run(spec)``"
would compare that engine with itself.  :func:`sequential_history` is the
other side of every such comparison: the per-message
:class:`~repro.core.trainer.GuanYuTrainer` over the
:class:`~repro.network.NetworkSimulator` and the autograd tape, built
directly and never dispatched.  It runs every protocol on the simulated
clock: GuanYu, and the single-server baselines as its first two routes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels import use_backend
from repro.runtime.facade import build_trainer

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.spec import ScenarioSpec
    from repro.obs.history import TrainingHistory

__all__ = ["sequential_history"]


def sequential_history(spec: "ScenarioSpec") -> "TrainingHistory":
    """Run ``spec`` on the sequential reference trainer, whatever
    :func:`repro.runtime.resolve_runtime` would have chosen for it.

    Raises :class:`TypeError` for a spec on the real clock — the oracle
    would silently be something else.
    """
    from repro.core.trainer import GuanYuTrainer  # lazy: import-light

    spec.validate()
    with use_backend(spec.kernels):
        trainer = build_trainer(spec)
        if not isinstance(trainer, GuanYuTrainer):
            raise TypeError(
                f"sequential_history needs a scenario on the simulated clock, got "
                f"'{spec.trainer}' on runtime {spec.runtime!r} ({type(trainer).__name__})")
        return trainer.run(spec.num_steps, eval_every=spec.eval_every,
                           max_eval_samples=spec.max_eval_samples)
