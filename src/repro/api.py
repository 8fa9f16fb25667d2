"""The stable public API of :mod:`repro`.

Nine PRs grew the system behind many import paths; this module is the
one that is *blessed*: everything here is re-exported from the package
root, documented, and kept backward compatible.  A user's whole workflow
fits in it::

    from repro import CampaignSpec, ResultStore, ScenarioSpec, run

    spec = ScenarioSpec(name="demo", num_workers=6, num_servers=3,
                        declared_byzantine_workers=1)
    store = ResultStore("results/")
    result = run(spec, store=store)          # ScenarioResult
    result.history.final_accuracy()
    store.query(gradient_rule="median")      # index-backed, lazy results

The surface:

* :func:`repro.runtime.run` — one front door for executing a scenario on
  whichever runtime its spec describes, with store caching;
* :class:`~repro.campaign.spec.ScenarioSpec` /
  :class:`~repro.campaign.spec.CampaignSpec` — declarative scenario and
  grid descriptions with content-address hashing;
* :class:`~repro.campaign.store.ResultStore` — the indexed,
  self-verifying result store (``query``/``summary_rows``/``fsck``/``gc``);
* :func:`~repro.obs.telemetry.get_registry` /
  :func:`~repro.obs.tracer.get_tracer` — the ambient telemetry registry
  and structured tracer.

Deep imports (``from repro.campaign import ResultStore``, ...) keep
working — this module adds a stable spelling, it does not remove any.
"""

from repro import _API_EXPORTS
from repro.campaign.spec import CampaignSpec, ScenarioSpec
from repro.campaign.store import ResultStore, StoredResult
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer
from repro.runtime.facade import ScenarioResult, run

#: the one export list: the package root serves exactly these names, lazily
__all__ = list(_API_EXPORTS)
