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
produced table is bit-reproducible — ``repro reproduce breakdown`` and
the scheduled smoke workflow rely on that.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.adversary import registry
from repro.aggregation import available_rules, get_rule
from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.core.config import ClusterConfig
from repro.experiments.common import workload_attack_kwargs
from repro.obs.history import TrainingHistory

#: adversaries the default boundary table sweeps (strongest first)
DEFAULT_ADVERSARIES = ("omniscient_descent", "collusion", "reversed_gradient")
#: GARs the default boundary table sweeps
DEFAULT_GARS = ("mean", "median", "multi_krum")


def _attack_spec(base: ScenarioSpec, gar: str, adversary: Optional[str],
                 adversary_kwargs: Optional[Dict],
                 num_attackers: int) -> ScenarioSpec:
    """The scenario evaluating ``gar`` against ``num_attackers`` colluders.

    The declared worker budget equals the actual attacker count — the rule
    is configured for exactly the attack it faces — and the gradient quorum
    is widened to the rule's minimum-input requirement where the default
    ``2f̄ + 3`` would be too small (Bulyan needs ``4f̄ + 3`` inputs).
    """
    rule = get_rule(gar, num_byzantine=num_attackers)
    config = ClusterConfig(num_servers=base.num_servers,
                           num_workers=base.num_workers,
                           num_byzantine_workers=num_attackers)
    quorum = max(config.gradient_quorum, rule.minimum_inputs())
    return base.replace(
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


def admissible_max_attackers(base: ScenarioSpec, gar: str) -> int:
    """Largest attacker count for which the evaluation scenario is valid."""
    ceiling = ClusterConfig.max_admissible_byzantine(base.num_workers)
    best = 0
    for count in range(1, ceiling + 1):
        try:
            _attack_spec(base, gar, None, None, count).validate()
        except ValueError:
            break
        best = count
    return best


def run_breakdown_search(base: Optional[ScenarioSpec] = None,
                         store: Optional[ResultStore] = None,
                         processes: Optional[int] = None, *,
                         gars: Sequence[str] = DEFAULT_GARS,
                         adversaries: Sequence[str] = DEFAULT_ADVERSARIES,
                         adversary_kwargs: Optional[Dict[str, Dict]] = None,
                         loss_factor: float = 1.5,
                         loss_slack: float = 0.25,
                         ) -> Tuple[List[Dict[str, object]],
                                    Dict[str, TrainingHistory]]:
    """Bisect the empirical breakdown point of every (GAR, adversary) pair.

    Parameters
    ----------
    base:
        The workload (default: ``ScenarioSpec()``).
    store:
        Optional result store: every evaluation (baseline and attacked) is
        cached under its ordinary scenario content address, so repeated or
        widened searches only run the new cells.
    processes:
        Ignored: each bisection step depends on the one before.
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

    Returns one row per pair, in input order — ``breakdown_f`` (the largest
    attacker count that still converged; ``breakdown_f + 1`` broke
    training, if admissible), ``admissible_f`` (the largest count the
    cluster arithmetic ``n̄ ≥ 3f̄ + 3`` and the rule's own minimum-input
    requirement admit), ``survives_admissible_max``, ``baseline_loss`` and
    the number of attacked ``evaluations`` — and every evaluated run's
    history by scenario name.
    """
    from repro.runtime import run as run_scenario  # lazy: import cycle

    base = base if base is not None else ScenarioSpec()
    for gar in gars:
        if gar not in available_rules():
            raise KeyError(f"unknown aggregation rule '{gar}'; "
                           f"available: {available_rules()}")
    kwargs_by_adversary = dict(adversary_kwargs or {})
    for adversary in adversaries:
        defaults = workload_attack_kwargs(adversary, base.dataset)
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

    histories: Dict[str, TrainingHistory] = {}

    def final_loss(spec: ScenarioSpec) -> float:
        history = run_scenario(spec, store=store).history
        histories[spec.name] = history
        return float(history.records[-1].train_loss)

    rows: List[Dict[str, object]] = []
    for gar in gars:
        admissible = admissible_max_attackers(base, gar)
        baseline_loss = final_loss(_attack_spec(base, gar, None, None, 0))
        threshold = loss_factor * baseline_loss + loss_slack
        for adversary in adversaries:
            evaluations = 0

            def survives(count: int) -> bool:
                nonlocal evaluations
                evaluations += 1
                return final_loss(_attack_spec(
                    base, gar, adversary,
                    kwargs_by_adversary.get(adversary), count)) <= threshold

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
            rows.append({
                "gradient_rule": gar, "adversary": adversary,
                "breakdown_f": low, "admissible_f": admissible,
                "survives_admissible_max": low >= admissible,
                "baseline_loss": baseline_loss, "evaluations": evaluations,
            })
    return rows, histories
