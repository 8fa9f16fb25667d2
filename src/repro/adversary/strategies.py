"""Built-in adversary strategies.

Three families, mirroring the strongest parts of the paper's threat model:

* :class:`OmniscientDescentAdversary` — the worst-case omniscient attack:
  an inner numerical optimisation against the *actual* deployed GAR
  searches the aggregation rule's most vulnerable direction each round
  (generalising the closed-form "a little is enough" heuristic).
* :class:`CollusionAdversary` — all Byzantine workers submit the **same**
  crafted vector, computed once per round from the observed honest
  gradients (maximum voting weight behind a single lie).
* :class:`SleeperAdversary` / :class:`OscillatingAdversary` — time-coupled
  adversaries that flip between honest and attacking behaviour on a step
  schedule (the sleeper wakes at a step, with the step semantics of
  :mod:`repro.faults` attack gating; the oscillator alternates with a
  fixed period).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.adversary.base import (
    HONEST_PLAN,
    Adversary,
    AttackContext,
    RoundObservation,
    RoundPlan,
    RunBinding,
    ServerAttack,
    WorkerAttack,
)
from repro.adversary.registry import get, lift, register


class _CoordinatedAdversary(Adversary):
    """Shared plumbing: optional server-side corruption component.

    The worker side of a coordinated adversary is the round plan; the
    server side (phase-1/3 model corruption happens *before* the round's
    gradients exist, so it never depends on the plan) routes through an
    optional stateless :class:`~repro.adversary.base.ServerAttack`.
    """

    def __init__(self, server_attack: Optional[str] = None,
                 server_kwargs: Optional[Dict] = None) -> None:
        super().__init__()
        self.server_attack = server_attack
        self.server_kwargs = dict(server_kwargs or {})
        self._server_attack: Optional[ServerAttack] = None
        if server_attack is not None:
            self._server_attack = get(server_attack, **self.server_kwargs)
            if not isinstance(self._server_attack, ServerAttack):
                raise ValueError(
                    f"server_attack '{server_attack}' is not a server attack")
        self.attacks_servers = self._server_attack is not None

    def server_model(self, context: AttackContext) -> Optional[np.ndarray]:
        if self._server_attack is None:
            return context.honest_value
        return self._server_attack.corrupt_model(context)


@register
class OmniscientDescentAdversary(_CoordinatedAdversary):
    """Worst-case omniscient attack: search the GAR's vulnerable direction.

    Each round the adversary reads the honest gradients, then runs an inner
    optimisation **against the actual aggregation rule** the servers
    deploy: for a small family of candidate directions (the coordinate-wise
    standard deviation of the honest gradients — the "a little is enough"
    envelope — the honest mean itself, its sign vector, and one random
    probe), it line-searches the amplitude ``λ`` of the colluding
    submission ``mean − λ·direction`` and keeps the candidate that drags
    the simulated aggregate furthest *against* the honest descent
    direction.  With ``num_amplitudes × 4`` GAR evaluations per round this
    generalises :class:`~repro.adversary.attacks.LittleIsEnoughAttack`
    from a fixed ``z`` to the empirically worst admissible one.
    """

    name = "omniscient_descent"

    def __init__(self, max_amplitude: float = 8.0, num_amplitudes: int = 9,
                 server_attack: Optional[str] = None,
                 server_kwargs: Optional[Dict] = None) -> None:
        super().__init__(server_attack=server_attack,
                         server_kwargs=server_kwargs)
        if max_amplitude <= 0:
            raise ValueError("max_amplitude must be positive")
        if num_amplitudes < 2:
            raise ValueError("num_amplitudes must be at least 2")
        self.max_amplitude = float(max_amplitude)
        self.num_amplitudes = int(num_amplitudes)

    # ------------------------------------------------------------------ #
    def _damage(self, candidate: np.ndarray, honest: np.ndarray,
                mean_unit: np.ndarray, copies: int) -> float:
        """How far the aggregate moves against honest descent.

        Simulates the server-side aggregation the way the deployment
        actually performs it: ``copies`` colluding submissions of
        ``candidate`` race ahead of the honest gradients (the covert
        channel delivers Byzantine messages first, so they are always
        inside the quorum) and the server stops at ``gradient_quorum``
        inputs — the remaining honest slots are approximated by the first
        honest workers in cluster order, since which of them actually
        arrive first depends on delays the plan must not sample.
        """
        quorum = self.binding.gradient_quorum
        if quorum > copies:
            honest = honest[:quorum - copies]
        elif quorum > 0:
            honest = honest[:0]
        inputs = np.concatenate(
            [np.tile(candidate, (copies, 1)), honest], axis=0)
        try:
            aggregate = self.binding.gradient_rule(inputs)
        except ValueError:
            return -np.inf
        return -float(np.dot(aggregate, mean_unit))

    def plan_round(self, observation: RoundObservation) -> RoundPlan:
        if self.binding is None:
            raise RuntimeError("adversary is not bound to a run")
        honest = observation.honest_gradients
        copies = len(self.binding.byzantine_workers)
        if not honest or copies == 0:
            # Nothing observable this round: fall back to plain reversal.
            return RoundPlan(fallback_scale=-self.max_amplitude)
        stacked = np.stack(honest)
        mean = stacked.mean(axis=0)
        mean_norm = float(np.linalg.norm(mean))
        if mean_norm == 0.0:
            return RoundPlan(fallback_scale=-self.max_amplitude)
        mean_unit = mean / mean_norm

        directions = [stacked.std(axis=0), mean,
                      np.sign(mean) * mean_norm / np.sqrt(mean.size)]
        probe = observation.rng.normal(0.0, 1.0, size=mean.shape)
        directions.append(probe * (mean_norm / max(np.linalg.norm(probe),
                                                   1e-12)))
        amplitudes = np.linspace(0.0, self.max_amplitude,
                                 self.num_amplitudes)[1:]

        best_vector, best_damage = None, -np.inf
        for direction in directions:
            if float(np.linalg.norm(direction)) == 0.0:
                continue
            for amplitude in amplitudes:
                candidate = mean - amplitude * direction
                damage = self._damage(candidate, stacked, mean_unit, copies)
                if damage > best_damage:
                    best_damage, best_vector = damage, candidate
        if best_vector is None:
            return RoundPlan(fallback_scale=-self.max_amplitude)
        return RoundPlan(payloads={wid: best_vector for wid
                                   in self.binding.byzantine_workers})


@register
class CollusionAdversary(_CoordinatedAdversary):
    """All Byzantine workers submit one identical crafted vector.

    The vector is produced once per round by an inner worker attack from
    the registry, evaluated at the honest mean with full peer visibility —
    so ``f̄`` colluding workers put their entire voting weight behind a
    single lie instead of ``f̄`` independent ones (the difference matters
    to selection rules like Multi-Krum, where identical vectors score each
    other at distance zero).
    """

    name = "collusion"

    def __init__(self, attack: str = "little_is_enough",
                 attack_kwargs: Optional[Dict] = None,
                 server_attack: Optional[str] = None,
                 server_kwargs: Optional[Dict] = None) -> None:
        super().__init__(server_attack=server_attack,
                         server_kwargs=server_kwargs)
        self.attack = attack
        self.attack_kwargs = dict(attack_kwargs or {})
        self._inner = get(attack, **self.attack_kwargs)
        if not isinstance(self._inner, WorkerAttack):
            raise ValueError(
                f"collusion crafts worker gradients; '{attack}' is a "
                f"{self._inner.kind.replace('-', ' ')}, not a worker "
                f"attack (use server_attack for the server side)")

    def plan_round(self, observation: RoundObservation) -> RoundPlan:
        if self.binding is None:
            raise RuntimeError("adversary is not bound to a run")
        honest = observation.honest_gradients
        if not honest:
            return RoundPlan(fallback_scale=-1.0)
        reference = observation.honest_mean()
        context = AttackContext(step=observation.step,
                                honest_value=reference,
                                peer_values=list(honest),
                                rng=observation.rng)
        vector = self._inner.corrupt_gradient(context)
        return RoundPlan(payloads={wid: vector for wid
                                   in self.binding.byzantine_workers})


class _GatedAdversary(Adversary):
    """Time-coupled wrapper: honest outside the active window(s).

    The inner strategy is any registered behaviour — a stateless attack
    is lifted.
    """

    def __init__(self, inner: str = "omniscient_descent",
                 inner_kwargs: Optional[Dict] = None) -> None:
        super().__init__()
        self.inner = inner
        self.inner_kwargs = dict(inner_kwargs or {})
        self._inner = lift(get(inner, **self.inner_kwargs))
        if isinstance(self._inner, _GatedAdversary):
            raise ValueError("time-coupled adversaries cannot nest")
        self.requires_observation = self._inner.requires_observation
        self.attacks_workers = self._inner.attacks_workers
        self.attacks_servers = self._inner.attacks_servers

    def bind(self, binding: RunBinding) -> None:
        super().bind(binding)
        self._inner.bind(binding)

    def _active(self, step: int) -> bool:
        raise NotImplementedError

    def observation_needed(self, step: int) -> bool:
        # Dormant rounds return HONEST_PLAN regardless of what was
        # observed, so the threaded board must not block for them.
        return self.requires_observation and self._active(step)

    # -- coordinated path ------------------------------------------------ #
    def plan_round(self, observation: RoundObservation) -> RoundPlan:
        if not self._active(observation.step):
            return HONEST_PLAN
        return self._inner.plan_round(observation)

    # -- per-call path (inner is a lifted stateless attack) -------------- #
    def worker_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        if not self._active(context.step):
            return context.honest_value
        return self._inner.worker_gradient(context)

    def poison_batch(self, features, labels, context: AttackContext):
        if not self._active(context.step):
            return features, labels
        return self._inner.poison_batch(features, labels, context)

    def server_model(self, context: AttackContext) -> Optional[np.ndarray]:
        if not self._active(context.step):
            return context.honest_value
        return self._inner.server_model(context)


@register
class SleeperAdversary(_GatedAdversary):
    """Behave honestly until ``wake_step``, then unleash the inner strategy.

    The window (closed again from ``sleep_step`` on, when one is given) has
    the step semantics of :mod:`repro.faults` attack gating — an
    ``activate_attack`` at ``wake_step``, a ``deactivate_attack`` at
    ``sleep_step``, each taking effect at its own step — judged on the
    node's own protocol step in every runtime.
    """

    name = "sleeper"

    def __init__(self, wake_step: int = 20, sleep_step: Optional[int] = None,
                 inner: str = "omniscient_descent",
                 inner_kwargs: Optional[Dict] = None) -> None:
        super().__init__(inner=inner, inner_kwargs=inner_kwargs)
        if wake_step < 0:
            raise ValueError("wake_step must be non-negative")
        if sleep_step is not None and sleep_step <= wake_step:
            raise ValueError("sleep_step must be after wake_step")
        self.wake_step = int(wake_step)
        self.sleep_step = None if sleep_step is None else int(sleep_step)

    def _active(self, step: int) -> bool:
        return step >= self.wake_step and (self.sleep_step is None
                                           or step < self.sleep_step)


@register
class OscillatingAdversary(_GatedAdversary):
    """Alternate honest and attacking phases with a fixed period.

    Steps ``[0, period)`` are honest, ``[period, 2·period)`` attack, and so
    on — an on/off duty cycle that defeats defences calibrated on a
    stationary corruption rate.
    """

    name = "oscillating"

    def __init__(self, period: int = 10, start_active: bool = False,
                 inner: str = "omniscient_descent",
                 inner_kwargs: Optional[Dict] = None) -> None:
        super().__init__(inner=inner, inner_kwargs=inner_kwargs)
        if period <= 0:
            raise ValueError("period must be positive")
        self.period = int(period)
        self.start_active = bool(start_active)

    def _active(self, step: int) -> bool:
        phase = (step // self.period) % 2
        return phase == (0 if self.start_active else 1)
