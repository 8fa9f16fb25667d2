"""Backend registry and active-backend resolution.

Selection precedence, strongest first:

1. an explicit :func:`set_backend` / :func:`use_backend` in this process
   (``ScenarioSpec.kernels`` and the ``--kernel-backend`` CLI flag land
   here),
2. the ``REPRO_KERNEL_BACKEND`` environment variable,
3. the ``reference`` backend.

Backends are process-wide singletons: they may carry reusable scratch
buffers, and every trainer in the process shares one instance per name.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Tuple

from repro.kernels.base import KernelBackend
from repro.kernels.numpy_opt import NumpyOptBackend
from repro.kernels.reference import ReferenceBackend

ENV_VAR = "REPRO_KERNEL_BACKEND"
DEFAULT_BACKEND = "reference"

_FACTORIES: Dict[str, Callable[[], KernelBackend]] = {
    "reference": ReferenceBackend,
    "numpy-opt": NumpyOptBackend,
}
_INSTANCES: Dict[str, KernelBackend] = {}
_ACTIVE: Optional[str] = None  # explicit in-process override


def available_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_FACTORIES))


def register_backend(name: str,
                     factory: Callable[[], KernelBackend]) -> None:
    """Register ``factory`` under ``name`` (e.g. an optional numba build).

    Re-registering an existing name replaces it and drops its cached
    instance.
    """
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def get_backend(name: Optional[str] = None) -> KernelBackend:
    """The singleton backend for ``name``; ``None`` resolves like
    :func:`active_backend`."""
    if name is None:
        name = _resolve_name()
    backend = _INSTANCES.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            known = ", ".join(available_backends())
            raise ValueError(
                f"unknown kernel backend {name!r} (available: {known})")
        backend = factory()
        _INSTANCES[name] = backend
    return backend


def _resolve_name() -> str:
    if _ACTIVE is not None:
        return _ACTIVE
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return DEFAULT_BACKEND


def active_backend() -> KernelBackend:
    """The backend hot kernels should use right now."""
    return get_backend(_resolve_name())


def set_backend(name: Optional[str]) -> None:
    """Set (or with ``None`` clear) the process-wide explicit override."""
    global _ACTIVE
    if name is not None:
        get_backend(name)  # validate eagerly
    _ACTIVE = name


@contextmanager
def use_backend(name: Optional[str]):
    """Temporarily select ``name``; ``None`` keeps the current selection.

    Tolerating ``None`` lets callers write ``with use_backend(spec.kernels)``
    without special-casing legacy specs.  The current selection is resolved
    once and pinned for the scope, so the kernels called inside — several
    per protocol step — do not read the environment again.
    """
    global _ACTIVE
    if name is None:
        name = _resolve_name()
    get_backend(name)  # validate before flipping the override
    previous = _ACTIVE
    _ACTIVE = name
    try:
        yield get_backend(name)
    finally:
        _ACTIVE = previous
