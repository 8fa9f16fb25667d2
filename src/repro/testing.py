"""Test and benchmark oracles.

:func:`repro.runtime.run` sends every dense-model GuanYu scenario to the
vectorised engine, so an assertion of the form "batched == ``run(spec)``"
would compare that engine with itself.  :func:`sequential_history` is the
other side of every such comparison: the per-message
:class:`~repro.core.trainer.GuanYuTrainer` over the
:class:`~repro.network.NetworkSimulator` and the autograd tape, built
directly and never dispatched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernels import use_backend

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.campaign.spec import ScenarioSpec
    from repro.obs.history import TrainingHistory

__all__ = ["sequential_history"]


def sequential_history(spec: "ScenarioSpec") -> "TrainingHistory":
    """Run ``spec`` on the sequential reference trainer, whatever
    :func:`repro.runtime.resolve_runtime` would have chosen for it.

    Raises :class:`TypeError` for a spec whose trainer is not ``guanyu`` —
    the oracle would silently be something else.
    """
    from repro.campaign.engine import build_trainer  # lazy: import-light
    from repro.core.trainer import GuanYuTrainer

    spec.validate()
    with use_backend(spec.kernels):
        trainer = build_trainer(spec)
        if not isinstance(trainer, GuanYuTrainer):
            raise TypeError(
                f"sequential_history needs a 'guanyu' scenario, got trainer "
                f"'{spec.trainer}' ({type(trainer).__name__})")
        return trainer.run(spec.num_steps, eval_every=spec.eval_every,
                           max_eval_samples=spec.max_eval_samples)
