"""Scenario campaign engine: declarative sweeps over the paper's grid.

The paper's claims are inherently *grids* — GAR × attack × cluster size ×
delay model × seed — and this package turns each cell of such a grid into a
declarative, hashable :class:`ScenarioSpec`:

* :mod:`repro.campaign.spec` — :class:`ScenarioSpec` (one run) and
  :class:`CampaignSpec` (grid/zip expansion of many runs) with JSON
  round-trip and admissibility validation;
* :mod:`repro.campaign.engine` — executes expanded scenarios through
  :func:`repro.runtime.run`, optionally in parallel via a
  ``multiprocessing`` pool, with per-scenario failure isolation;
* :mod:`repro.campaign.store` — a content-addressed on-disk
  :class:`ResultStore` (spec hash → serialised history + metadata) giving
  caching, resume of interrupted campaigns and cross-campaign queries,
  answered from the :mod:`repro.campaign.index` sidecar index with
  :meth:`~ResultStore.fsck` / :meth:`~ResultStore.gc` hygiene;
* :mod:`repro.campaign.scheduler` — the ``repro serve`` daemon accepting
  campaign JSON over local HTTP, deduping against the store index and
  executing through the engine.

The legacy experiment harnesses (``run_attack_sweep``, ``run_gar_ablation``,
``run_figure4``, ...) are thin campaign definitions executed by this engine;
``python -m repro.cli sweep`` exposes it from the command line.
"""

from repro.campaign.spec import (
    AttackSpec,
    CampaignSpec,
    ScenarioSpec,
    available_cost_models,
    available_delay_models,
    available_trainers,
)
from repro.campaign.engine import (
    CampaignResult,
    ScenarioOutcome,
    build_trainer,
    run_campaign,
)
from repro.campaign.index import StoreIndex
from repro.campaign.scheduler import CampaignScheduler
from repro.campaign.store import (
    FsckIssue,
    FsckReport,
    ResultStore,
    StoredResult,
)

__all__ = [
    "AttackSpec",
    "ScenarioSpec",
    "CampaignSpec",
    "available_trainers",
    "available_delay_models",
    "available_cost_models",
    "ScenarioOutcome",
    "CampaignResult",
    "build_trainer",
    "run_campaign",
    "ResultStore",
    "StoredResult",
    "StoreIndex",
    "CampaignScheduler",
    "FsckIssue",
    "FsckReport",
]
