"""The one name → behaviour table of the threat model.

Stateless attacks (:mod:`repro.adversary.attacks`) and stateful adversaries
(:mod:`repro.adversary.strategies`) register here under their ``name``;
each class carries its ``kind`` and the side(s) it attacks as data.  Any
registered behaviour can drive a run: :func:`lift` turns whatever
:func:`get` returned into the one :class:`~repro.adversary.base.Adversary`
the wiring installs.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from repro.adversary.base import Adversary, ServerAttack, StatelessAdversary, WorkerAttack

Behaviour = Union[WorkerAttack, ServerAttack, Adversary]

#: the stateless per-call kinds, as ``available(kind=STATELESS)`` takes them
STATELESS: Tuple[str, ...] = (WorkerAttack.kind, ServerAttack.kind)

_REGISTRY: Dict[str, type] = {}


def register(behaviour_class: type) -> type:
    """Register a behaviour class under its :attr:`name` attribute."""
    name = behaviour_class.name
    if not name or name.startswith("abstract"):
        raise ValueError("behaviour classes must define a non-empty 'name'")
    _REGISTRY[name] = behaviour_class
    return behaviour_class


def available(kind: Union[None, str, Tuple[str, ...]] = None) -> List[str]:
    """Registered names, sorted; of one kind (or several) when given."""
    kinds = (kind,) if isinstance(kind, str) else kind
    return sorted(name for name, behaviour_class in _REGISTRY.items()
                  if kinds is None or behaviour_class.kind in kinds)


def get(name: str, **kwargs) -> Behaviour:
    """Instantiate the registered behaviour ``name``."""
    try:
        behaviour_class = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown adversary '{name}'; stateful: "
            f"{available(Adversary.kind)}, stateless attacks: "
            f"{available(STATELESS)}") from None
    return behaviour_class(**kwargs)


def lift(behaviour: Behaviour) -> Adversary:
    """The :class:`Adversary` that drives a run with ``behaviour``."""
    if isinstance(behaviour, WorkerAttack):
        return StatelessAdversary(worker=behaviour)
    if isinstance(behaviour, ServerAttack):
        return StatelessAdversary(server=behaviour)
    return behaviour
