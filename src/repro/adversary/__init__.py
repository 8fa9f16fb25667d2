"""The threat model: one omniscient adversary, one package, one registry.

The paper's adversary is a single entity that controls every Byzantine
worker and every Byzantine parameter server of a run.  Two kinds of
behaviour are registered here, under one name → class table
(:mod:`repro.adversary.registry`):

* **stateless per-call attacks** (:mod:`repro.adversary.attacks`) — pure
  transforms of the one gradient or model a Byzantine node is about to
  send;
* **stateful coordinated adversaries** (:mod:`repro.adversary.strategies`)
  — they observe the honest gradients of the round, the current model and
  the deployed GAR, and emit coordinated, time-coupled corruptions.

Either kind drives a run through the same engine
(:mod:`repro.adversary.engine`): a stateless attack is lifted into a
:class:`StatelessAdversary`.  See ``docs/adversaries.md`` for the taxonomy
and the determinism contract, and :mod:`repro.experiments.breakdown` for
the empirical breakdown-point search built on top.
"""

from repro.adversary.base import (
    HONEST_PLAN,
    Adversary,
    AttackContext,
    RoundObservation,
    RoundPlan,
    RunBinding,
    ServerAttack,
    StatelessAdversary,
    WorkerAttack,
)
from repro.adversary.registry import STATELESS, available, get, lift, register
from repro.adversary.attacks import (
    CorruptedModelAttack,
    EquivocationAttack,
    LabelFlipPoisoning,
    LittleIsEnoughAttack,
    RandomGradientAttack,
    RandomModelAttack,
    ReversedGradientAttack,
    SignFlipAttack,
    SilentServer,
    SilentWorker,
    StaleModelAttack,
)
from repro.adversary.strategies import (
    CollusionAdversary,
    OmniscientDescentAdversary,
    OscillatingAdversary,
    SleeperAdversary,
)
from repro.adversary.engine import (
    AdversaryCoordinator,
    AdversaryServerAttack,
    AdversaryWorkerAttack,
    ObservationTimeout,
    make_binding,
)

__all__ = [
    "AttackContext",
    "WorkerAttack",
    "ServerAttack",
    "Adversary",
    "StatelessAdversary",
    "RunBinding",
    "RoundObservation",
    "RoundPlan",
    "HONEST_PLAN",
    "STATELESS",
    "register",
    "available",
    "get",
    "lift",
    "RandomGradientAttack",
    "ReversedGradientAttack",
    "SignFlipAttack",
    "LittleIsEnoughAttack",
    "LabelFlipPoisoning",
    "SilentWorker",
    "CorruptedModelAttack",
    "RandomModelAttack",
    "EquivocationAttack",
    "StaleModelAttack",
    "SilentServer",
    "OmniscientDescentAdversary",
    "CollusionAdversary",
    "SleeperAdversary",
    "OscillatingAdversary",
    "AdversaryCoordinator",
    "AdversaryWorkerAttack",
    "AdversaryServerAttack",
    "ObservationTimeout",
    "make_binding",
]
