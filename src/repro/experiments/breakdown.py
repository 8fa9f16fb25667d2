"""Empirical breakdown-point search: the resilience boundary as data.

The paper's guarantee is conditional — GuanYu tolerates up to ``f̄``
Byzantine workers *provided* ``n̄ ≥ 3f̄ + 3`` and the GAR is
``(α, f)``-Byzantine-resilient.  This module measures where that boundary
actually sits: for every (GAR, adversary) pair it **bisects the largest
number of attacking workers the rule survives**, where "survives" means the
attacked run's final training loss stays within a tolerance band of an
honest baseline run of the same rule.

The search is fully declarative: every evaluation is a
:class:`~repro.campaign.spec.ScenarioSpec` (so results are cached in an
optional :class:`~repro.campaign.store.ResultStore` under their usual
content addresses and shared with any other campaign), the attacked runs
declare ``f̄`` equal to the actual attacker count (the rule is always
configured for exactly the attack it faces), and for a pinned seed the
produced table is bit-reproducible — the ``breakdown`` CLI subcommand and
the scheduled smoke workflow rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary import registry
from repro.aggregation import available_rules, get_rule
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClusterConfig
from repro.experiments.common import ExperimentScale, workload_attack_kwargs

#: adversaries the default boundary table sweeps (strongest first)
DEFAULT_ADVERSARIES = ("omniscient_descent", "collusion", "reversed_gradient")
#: GARs the default boundary table sweeps
DEFAULT_GARS = ("mean", "median", "multi_krum")


@dataclass
class BreakdownResult:
    """Outcome of one (GAR, adversary) bisection."""

    gradient_rule: str
    adversary: str
    #: largest attacker count that still converged (the empirical breakdown
    #: point); attacks at ``breakdown_f + 1`` broke training (if admissible)
    breakdown_f: int
    #: largest attacker count the cluster arithmetic admits (``n̄ ≥ 3f̄+3``
    #: intersected with the rule's own minimum-input requirement)
    admissible_f: int
    baseline_loss: float
    #: final loss per evaluated attacker count (sorted by ``f``)
    losses: Dict[int, float] = field(default_factory=dict)
    evaluations: int = 0

    def as_row(self) -> Dict[str, object]:
        return {
            "gradient_rule": self.gradient_rule,
            "adversary": self.adversary,
            "breakdown_f": self.breakdown_f,
            "admissible_f": self.admissible_f,
            "survives_admissible_max": self.breakdown_f >= self.admissible_f,
            "baseline_loss": self.baseline_loss,
            "evaluations": self.evaluations,
        }


def _attack_spec(scale: ExperimentScale, gar: str, adversary: Optional[str],
                 adversary_kwargs: Optional[Dict],
                 num_attackers: int) -> ScenarioSpec:
    """The scenario evaluating ``gar`` against ``num_attackers`` colluders.

    The declared worker budget equals the actual attacker count — the rule
    is configured for exactly the attack it faces — and the gradient quorum
    is widened to the rule's minimum-input requirement where the default
    ``2f̄ + 3`` would be too small (Bulyan needs ``4f̄ + 3`` inputs).
    """
    rule = get_rule(gar, num_byzantine=num_attackers)
    config = ClusterConfig(num_servers=scale.num_servers,
                           num_workers=scale.num_workers,
                           num_byzantine_workers=num_attackers)
    quorum = max(config.gradient_quorum, rule.minimum_inputs())
    spec = ScenarioSpec.from_scale(
        scale,
        name=f"breakdown-{gar}-{adversary or 'honest'}-f{num_attackers}",
        trainer="guanyu",
        gradient_rule=gar,
        declared_byzantine_workers=num_attackers,
        declared_byzantine_servers=0,
        gradient_quorum=quorum,
        adversary=(None if adversary is None or num_attackers == 0
                   else {"name": adversary,
                         "kwargs": dict(adversary_kwargs or {})}),
        num_attacking_workers=num_attackers if adversary else 0,
    )
    return spec


def admissible_max_attackers(scale: ExperimentScale, gar: str) -> int:
    """Largest attacker count for which the evaluation scenario is valid."""
    ceiling = ClusterConfig.max_admissible_byzantine(scale.num_workers)
    best = 0
    for count in range(1, ceiling + 1):
        try:
            _attack_spec(scale, gar, None, None, count).validate()
        except ValueError:
            break
        best = count
    return best


def _final_loss(spec: ScenarioSpec,
                store: Optional[ResultStore]) -> Tuple[float, bool]:
    """``(final training loss, was_cached)`` of one evaluation scenario."""
    from repro.runtime import run as run_scenario  # lazy: import cycle

    result = run_scenario(spec, store=store)
    return (float(result.history.records[-1].train_loss),
            result.status == "cached")


def run_breakdown_search(scale: Optional[ExperimentScale] = None,
                         gars: Sequence[str] = DEFAULT_GARS,
                         adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
                         adversary_kwargs: Optional[Dict[str, Dict]] = None,
                         loss_factor: float = 1.5,
                         loss_slack: float = 0.25,
                         store: Optional[ResultStore] = None
                         ) -> List[BreakdownResult]:
    """Bisect the empirical breakdown point of every (GAR, adversary) pair.

    Parameters
    ----------
    scale:
        Workload knobs (default: :meth:`ExperimentScale.small`).
    gars, adversaries:
        Names to cross.  Unknown GAR names raise ``KeyError``; adversary
        names resolve through the adversary registry (stateful strategies
        or lifted stateless attacks).
    adversary_kwargs:
        Optional per-adversary constructor keyword overrides
        (``{"collusion": {"attack": "sign_flip"}}``).
    loss_factor, loss_slack:
        A run *survives* when its final loss ``L`` satisfies
        ``L ≤ loss_factor · baseline + loss_slack`` against the same-rule
        honest baseline — multiplicative band for workloads where the
        baseline is large, additive slack where it is near zero.
    store:
        Optional result store: every evaluation (baseline and attacked) is
        cached under its ordinary scenario content address, so repeated or
        widened searches only run the new cells.

    Returns one :class:`BreakdownResult` per pair, in input order.
    """
    scale = scale if scale is not None else ExperimentScale.small()
    for gar in gars:
        if gar not in available_rules():
            raise KeyError(f"unknown aggregation rule '{gar}'; "
                           f"available: {available_rules()}")
    kwargs_by_adversary = dict(adversary_kwargs or {})
    for adversary in adversaries:
        defaults = workload_attack_kwargs(adversary, scale.dataset)
        if defaults:
            kwargs = {**defaults, **kwargs_by_adversary.get(adversary, {})}
            kwargs_by_adversary[adversary] = kwargs
        # Fail on typos and inapplicable strategies *before* the first
        # baseline trains, not after.
        built = registry.get(adversary,
                             **kwargs_by_adversary.get(adversary, {}))
        if not built.attacks_workers:
            raise ValueError(
                f"adversary '{adversary}' corrupts only server models; the "
                f"breakdown search probes worker-side resilience (the GAR "
                f"aggregating gradients) — pick a worker-side adversary")

    results: List[BreakdownResult] = []
    for gar in gars:
        admissible = admissible_max_attackers(scale, gar)
        baseline_spec = _attack_spec(scale, gar, None, None, 0)
        baseline_loss, _ = _final_loss(baseline_spec, store)
        threshold = loss_factor * baseline_loss + loss_slack
        for adversary in adversaries:
            losses: Dict[int, float] = {0: baseline_loss}
            evaluations = 0

            def survives(count: int) -> bool:
                nonlocal evaluations
                spec = _attack_spec(scale, gar, adversary,
                                    kwargs_by_adversary.get(adversary),
                                    count)
                loss, _ = _final_loss(spec, store)
                losses[count] = loss
                evaluations += 1
                return loss <= threshold

            # Bisection for the largest surviving f: f = 0 survives by
            # construction (no attackers), and survival is treated as
            # monotone in the attacker count.
            low, high = 0, admissible
            while low < high:
                middle = (low + high + 1) // 2
                if survives(middle):
                    low = middle
                else:
                    high = middle - 1
            results.append(BreakdownResult(
                gradient_rule=gar, adversary=adversary, breakdown_f=low,
                admissible_f=admissible, baseline_loss=baseline_loss,
                losses=dict(sorted(losses.items())),
                evaluations=evaluations))
    return results


def breakdown_table(results: Sequence[BreakdownResult]) -> List[Dict[str, object]]:
    """The resilience-boundary table (one row per (GAR, adversary) pair)."""
    return [result.as_row() for result in results]
