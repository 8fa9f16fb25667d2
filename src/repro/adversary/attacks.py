"""The stateless per-call behaviours: worker and server attacks.

The paper (Section 5.1 and 5.4) groups Byzantine actions into four classes:

1. sending corrupted gradients to parameter servers (worker attack),
2. sending corrupted parameter vectors/models to workers (server attack),
3. sending *different* replies to different participants (equivocation),
4. not responding at all (silence).

Each class is implemented here, plus stronger attacks from the follow-up
literature (reversed gradients, sign flipping, "a little is enough"-style
variance attacks, label-flip data poisoning) for the attack-sweep ablation.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np

from repro.adversary.base import AttackContext, ServerAttack, WorkerAttack
from repro.adversary.registry import register

@register
class RandomGradientAttack(WorkerAttack):
    """Send a totally corrupted gradient drawn from a wide Gaussian.

    This is the "severe attack" of the paper's Section 5.1: the Byzantine
    worker sends data unrelated to (and much larger than) the correct
    gradient, which pulls averaging-based learning out of the convergence
    region immediately.
    """

    name = "random_gradient"

    def __init__(self, scale: float = 100.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def corrupt_gradient(self, context: AttackContext) -> np.ndarray:
        return context.rng.normal(0.0, self.scale, size=context.honest_value.shape)


@register
class ReversedGradientAttack(WorkerAttack):
    """Send the honest gradient multiplied by a large negative factor.

    Drives gradient *ascent* on the loss if it survives aggregation.
    """

    name = "reversed_gradient"
    pure = True

    def __init__(self, factor: float = 10.0) -> None:
        if factor <= 0:
            raise ValueError("factor must be positive")
        self.factor = factor

    def corrupt_gradient(self, context: AttackContext) -> np.ndarray:
        return -self.factor * context.honest_value


@register
class SignFlipAttack(WorkerAttack):
    """Flip the sign of every coordinate of the honest gradient."""

    name = "sign_flip"
    pure = True

    def corrupt_gradient(self, context: AttackContext) -> np.ndarray:
        return -context.honest_value


@register
class LittleIsEnoughAttack(WorkerAttack):
    """Variance-scaled perturbation ("a little is enough", Baruch et al.).

    The omniscient adversary observes the correct workers' gradients, then
    sends ``mean - z * std`` coordinate-wise.  With a carefully small ``z``
    the attack stays within the natural noise envelope and can defeat naive
    per-coordinate defences while remaining hard to filter.
    """

    name = "little_is_enough"
    pure = True

    def __init__(self, z_factor: float = 1.5) -> None:
        self.z_factor = z_factor

    def corrupt_gradient(self, context: AttackContext) -> np.ndarray:
        peers = [np.asarray(v) for v in context.peer_values]
        if len(peers) < 2:
            # Without visibility of peers, fall back to attacking the honest value.
            return -self.z_factor * context.honest_value
        stacked = np.stack(peers)
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        return mean - self.z_factor * std


@register
class LabelFlipPoisoning(WorkerAttack):
    """Data poisoning: train on flipped labels and send the honest-looking
    gradient of the poisoned objective.

    This models the paper's motivating scenario (mislabelled content
    poisoning a recommender) rather than an arbitrary-message attack: the
    gradient is a *real* gradient, just of the wrong objective.
    """

    name = "label_flip"
    pure = True

    def __init__(self, num_classes: int = 10) -> None:
        if num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        self.num_classes = num_classes

    def poison_batch(self, features: np.ndarray, labels: np.ndarray,
                     context: AttackContext):
        flipped = (self.num_classes - 1) - np.asarray(labels)
        return features, flipped

    def corrupt_gradient(self, context: AttackContext) -> np.ndarray:
        # The gradient was already computed on the poisoned batch.
        return context.honest_value


@register
class SilentWorker(WorkerAttack):
    """Never respond.

    The paper notes this is the least harmful Byzantine option (even vanilla
    deployments converge with a silent node); it exists to exercise the
    quorum logic under missing messages.
    """

    name = "silent_worker"
    pure = True

    def corrupt_gradient(self, context: AttackContext) -> Optional[np.ndarray]:
        return None


@register
class CorruptedModelAttack(ServerAttack):
    """Send a heavily corrupted model (honest model plus large noise).

    Mirrors the paper's severe attack in which a Byzantine server sends "bad
    data ... compared to the correct one it should send".
    """

    name = "corrupted_model"

    def __init__(self, noise_scale: float = 50.0) -> None:
        if noise_scale <= 0:
            raise ValueError("noise_scale must be positive")
        self.noise_scale = noise_scale

    def corrupt_model(self, context: AttackContext) -> np.ndarray:
        noise = context.rng.normal(0.0, self.noise_scale,
                                   size=context.honest_value.shape)
        return context.honest_value + noise


@register
class RandomModelAttack(ServerAttack):
    """Send a model drawn from a wide Gaussian, unrelated to the true model."""

    name = "random_model"

    def __init__(self, scale: float = 100.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale

    def corrupt_model(self, context: AttackContext) -> np.ndarray:
        return context.rng.normal(0.0, self.scale, size=context.honest_value.shape)


@register
class EquivocationAttack(ServerAttack):
    """Send *different* corrupted models to different recipients.

    This is the scheme the paper explicitly experiments with ("a parameter
    server sends different (bad) models to different workers in the same
    iteration").  Each recipient gets the honest model shifted in a
    recipient-specific random direction, so no two receivers can compare
    notes and see the same value.
    """

    name = "equivocation"

    def __init__(self, magnitude: float = 25.0) -> None:
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        self.magnitude = magnitude

    def corrupt_model(self, context: AttackContext) -> np.ndarray:
        # Derive a deterministic per-recipient direction so that the same
        # recipient consistently receives the same lie within a step.  The
        # seed is a stable digest, not Python's per-process-salted hash():
        # results must be bit-reproducible across processes (the campaign
        # engine runs scenarios in multiprocessing pool workers).
        material = f"{context.recipient}|{context.step}".encode("utf-8")
        recipient_seed = int.from_bytes(
            hashlib.sha256(material).digest()[:4], "big")
        recipient_rng = np.random.default_rng(recipient_seed)
        direction = recipient_rng.normal(0.0, 1.0, size=context.honest_value.shape)
        norm = np.linalg.norm(direction)
        if norm > 0:
            direction = direction / norm
        scale = self.magnitude * max(1.0, float(np.linalg.norm(context.honest_value)))
        return context.honest_value + scale * direction


@register
class StaleModelAttack(ServerAttack):
    """Always send the initial model, never making progress.

    A subtle attack: the value is plausible (it was once a correct model) but
    frozen in time, attempting to hold the median back.
    """

    name = "stale_model"

    def __init__(self) -> None:
        self._frozen: Optional[np.ndarray] = None

    def corrupt_model(self, context: AttackContext) -> np.ndarray:
        if self._frozen is None:
            self._frozen = np.array(context.honest_value, copy=True)
        return self._frozen.copy()


@register
class SilentServer(ServerAttack):
    """Never respond to any request."""

    name = "silent_server"

    def corrupt_model(self, context: AttackContext) -> Optional[np.ndarray]:
        return None
