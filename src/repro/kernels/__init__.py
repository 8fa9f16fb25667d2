"""Pluggable hot-kernel backends.

The numerical hot loops — the Gram/pairwise distance kernel behind
Krum/Multi-Krum/Bulyan, the mean/trimmed-mean/median reductions, and the
replica-batched dense forward/backward — live behind the
:class:`~repro.kernels.base.KernelBackend` interface.  Two backends ship:
``reference`` (the extracted original code, the bitwise fixed point) and
``numpy-opt`` (partition-based Krum sums, preallocated buffers); the
sort-based mean / trimmed-mean / median reductions are shared.  Select
one with :func:`use_backend`/:func:`set_backend`, the
``REPRO_KERNEL_BACKEND`` environment variable, ``ScenarioSpec.kernels``,
or the ``--kernel-backend`` CLI flag.  See ``docs/kernels.md``.

This package must import nothing from ``repro`` outside itself (only
NumPy) so that every layer — aggregation, batch, runtime — can depend on
it without cycles.
"""

from repro.kernels.base import DensePlan, KernelBackend
from repro.kernels.numpy_opt import NumpyOptBackend
from repro.kernels.reference import ReferenceBackend
from repro.kernels.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)

__all__ = [
    "DEFAULT_BACKEND",
    "DensePlan",
    "ENV_VAR",
    "KernelBackend",
    "NumpyOptBackend",
    "ReferenceBackend",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]
