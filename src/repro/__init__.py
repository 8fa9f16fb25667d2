"""repro — reproduction of "Genuinely Distributed Byzantine Machine Learning".

The package implements GuanYu (El-Mhamdi, Guerraoui, Guirguis, Rouault;
PODC 2020): SGD-based distributed learning that tolerates up to one third of
Byzantine *parameter servers* in addition to one third of Byzantine workers,
over an asynchronous network.

Sub-packages
------------
``repro.tensor``       reverse-mode autograd engine (TensorFlow substitute)
``repro.nn``           layers, models (incl. the paper's Table 1 CNN), optimisers
``repro.kernels``      the numerical kernel backends behind GARs and dense models
``repro.data``         synthetic datasets (CIFAR-10 substitute) and sharding
``repro.hetero``       non-i.i.d. partitions and heterogeneous worker profiles
``repro.aggregation``  gradient aggregation rules (median, Multi-Krum, ...)
``repro.adversary``    the threat model: stateless attacks, stateful adversaries
``repro.faults``       declarative fault schedules (crashes, partitions, gating)
``repro.network``      seeded asynchronous network simulator
``repro.core``         the GuanYu protocol, its baselines and the cluster wiring
``repro.batch``        the vectorised multi-replica engine
``repro.runtime``      cost models, the threaded runtime and the process cluster
``repro.campaign``     declarative scenarios and grids, result store, scheduler
``repro.experiments``  the paper's tables, figures and ablations as campaigns
``repro.obs``          tracer, metrics registry, flight recorder, histories
``repro.metrics``      accuracy, throughput, training histories
``repro.plotting``     ASCII charts and tables for the CLI reports
``repro.theory``       contraction / alignment / breakdown-point checks

Stable API (see :mod:`repro.api`)
---------------------------------
The blessed, backward-compatible surface is importable straight from the
package root: :func:`run` (execute one scenario on the runtime its spec
describes), :class:`ScenarioSpec` / :class:`CampaignSpec` (declarative
scenarios and grids), :class:`ResultStore` (the indexed result store)
and :func:`get_registry` / :func:`get_tracer` (ambient telemetry and
tracing).  These names resolve lazily so ``import repro`` stays light;
deep imports (``from repro.campaign import ResultStore``, ...) keep
working unchanged.

>>> from repro import ResultStore, ScenarioSpec, run  # doctest: +SKIP
>>> result = run(ScenarioSpec(name="demo"), store=ResultStore("results/"))
... # doctest: +SKIP

Quickstart
----------
>>> from repro import ClusterConfig, GuanYuTrainer
>>> from repro.data import make_blobs_dataset
>>> from repro.nn import build_model
>>> data = make_blobs_dataset(num_samples=400, num_features=4, seed=1)
>>> train, test = data.split(0.8, seed=1)
>>> trainer = GuanYuTrainer(
...     config=ClusterConfig(num_servers=4, num_workers=6),
...     model_fn=lambda: build_model("softmax", in_features=4, num_classes=3),
...     train_dataset=train, test_dataset=test, batch_size=16, seed=1)
>>> history = trainer.run(num_steps=5, eval_every=5)
>>> len(history) == 5
True
"""

from repro.core import (
    ClusterConfig,
    DistributedTrainer,
    GuanYuTrainer,
    SingleServerKrumTrainer,
    VanillaTrainer,
)

__version__ = "1.0.0"

#: names served lazily from :mod:`repro.api` (PEP 562) — campaign and
#: runtime machinery must not load on ``import repro`` (heavy, and some
#: consumers only want the core trainers).  The only copy of the list:
#: ``repro.api.__all__`` is derived from it.
_API_EXPORTS = (
    "run",
    "ScenarioSpec",
    "CampaignSpec",
    "ResultStore",
    "StoredResult",
    "ScenarioResult",
    "get_registry",
    "get_tracer",
)

__all__ = [
    "ClusterConfig",
    "DistributedTrainer",
    "GuanYuTrainer",
    "VanillaTrainer",
    "SingleServerKrumTrainer",
    "__version__",
    *_API_EXPORTS,
]


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
