"""GAR decision provenance: *which* inputs a rule admitted, and why.

The paper's resilience claims are about selection behaviour — Multi-Krum
discarding the Byzantine gradients, Bulyan's trimmed mean neutralising the
survivors — yet an aggregated vector alone says nothing about which inputs
produced it.  :func:`decide` recomputes a rule's selection on a given input
stack and packages it as a :class:`GarDecision`: selected indices, per-input
scores, the output's distance to the honest mean, and how many known
attacker inputs made it into the selection.

Decision records are **derived observability data**: they re-run the rule's
selection logic on the side and never feed back into training, so emitting
them cannot perturb a run (they are gated behind
``Tracer.record_decisions`` because the recomputation is not free).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Container, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.aggregation.base import GradientAggregationRule, VectorList, check_vectors
from repro.obs.telemetry import get_registry
from repro.obs.tracer import get_tracer

__all__ = ["GarDecision", "decide", "record_decision",
           "attacker_acceptance_rate"]


@dataclass
class GarDecision:
    """One aggregation decision, reconstructed for observability.

    Attributes
    ----------
    rule:
        Registry name of the rule (``"multi_krum"``, ...).
    num_inputs / num_byzantine:
        Input count ``n`` and the rule's configured tolerance ``f``.
    selected:
        Indices (into the input stack) of the vectors that contribute to
        the output.  For selection-free rules (mean, median, trimmed mean)
        this is *all* indices — every input influences the output.
    scores:
        Per-input scores when the rule computes any (Krum family), else
        ``None``.  Lower is better.
    distance_to_honest_mean:
        ``‖output − mean(honest inputs)‖₂`` where "honest" means not listed
        in ``attacker_indices`` (all inputs when no attackers are known).
    attacker_indices / attackers_selected:
        Known attacker positions in the input stack, and how many of them
        were selected.
    acceptance_rate:
        ``attackers_selected / len(attacker_indices)`` — the per-decision
        attacker acceptance rate; ``None`` when no attacker is known.
    """

    rule: str
    num_inputs: int
    num_byzantine: int
    selected: List[int]
    scores: Optional[List[float]] = None
    distance_to_honest_mean: float = 0.0
    attacker_indices: List[int] = field(default_factory=list)
    attackers_selected: int = 0
    acceptance_rate: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "rule": self.rule,
            "num_inputs": self.num_inputs,
            "num_byzantine": self.num_byzantine,
            "selected": self.selected,
            "distance_to_honest_mean": self.distance_to_honest_mean,
            "attacker_indices": self.attacker_indices,
            "attackers_selected": self.attackers_selected,
        }
        if self.scores is not None:
            payload["scores"] = self.scores
        if self.acceptance_rate is not None:
            payload["acceptance_rate"] = self.acceptance_rate
        return payload


def decide(rule: GradientAggregationRule, vectors: VectorList,
           attacker_indices: Optional[Sequence[int]] = None) -> GarDecision:
    """Reconstruct the decision ``rule`` makes on ``vectors``.

    The rule's output and selection are recomputed here — call sites must
    never substitute the returned data back into the training path, which
    keeps the tracing layer's zero-perturbation guarantee trivially true.
    """
    stacked = check_vectors(vectors)
    n = stacked.shape[0]
    attackers = sorted(int(i) for i in (attacker_indices or []))

    selected = rule.selected_input_indices(stacked)
    if selected is None:
        selected_list = list(range(n))
    else:
        selected_list = [int(i) for i in selected]

    raw_scores = rule.input_scores(stacked)
    scores = None if raw_scores is None else [float(s) for s in raw_scores]

    output = rule(stacked)
    honest = [i for i in range(n) if i not in set(attackers)]
    reference = stacked[honest] if honest else stacked
    distance = float(np.linalg.norm(output - reference.mean(axis=0)))

    attackers_selected = len(set(attackers) & set(selected_list))
    acceptance = (attackers_selected / len(attackers)) if attackers else None

    return GarDecision(rule=rule.name, num_inputs=n,
                       num_byzantine=rule.num_byzantine,
                       selected=selected_list, scores=scores,
                       distance_to_honest_mean=distance,
                       attacker_indices=attackers,
                       attackers_selected=attackers_selected,
                       acceptance_rate=acceptance)


def record_decision(event: str, rule: GradientAggregationRule,
                    vectors: VectorList, senders: Sequence,
                    attackers: Container, **attrs: Any) -> None:
    """Emit one decision record, if the ambient tracer asks for them.

    The one instrumentation point both simulated engines call from their
    aggregate phase: ``event`` is the trace event name
    (``"seq.gar.decision"`` / ``"batch.gar.decision"``), ``senders`` names
    the sender of each vector in quorum order, ``attackers`` holds the
    actually-Byzantine senders, and ``attrs`` carry the step, node and
    (batched) replica the record belongs to.  The selection is
    recomputed on the side from the payloads the server aggregates —
    nothing here feeds back into the update — and the recomputation stays
    gated behind ``Tracer.record_decisions``; the metrics registry only
    folds the result into its per-rule ``repro_gar_*`` acceptance series.
    """
    tracer = get_tracer()
    if not (tracer.enabled and tracer.record_decisions):
        return
    decision = decide(rule, vectors, attacker_indices=[
        index for index, sender in enumerate(senders) if sender in attackers])
    tracer.event(event, **attrs, **decision.to_dict())
    registry = get_registry()
    if not registry.enabled:
        return
    name = decision.rule
    registry.inc("repro_gar_decisions_total", rule=name)
    if decision.attacker_indices:
        registry.inc("repro_gar_attackers_offered_total",
                     len(decision.attacker_indices), rule=name)
        registry.inc("repro_gar_attackers_selected_total",
                     decision.attackers_selected, rule=name)
        offered = registry.counter(
            "repro_gar_attackers_offered_total").value(rule=name)
        admitted = registry.counter(
            "repro_gar_attackers_selected_total").value(rule=name)
        registry.set_gauge("repro_gar_attacker_acceptance",
                           admitted / offered if offered else 0.0, rule=name)


def attacker_acceptance_rate(decisions: Iterable[GarDecision]) -> float:
    """Fraction of known-attacker inputs admitted across many decisions.

    The per-rule metric of the tentpole: over every decision that saw at
    least one attacker, ``sum(attackers_selected) / sum(len(attackers))``.
    Returns NaN when no decision involved a known attacker.
    """
    admitted = 0
    offered = 0
    for decision in decisions:
        admitted += decision.attackers_selected
        offered += len(decision.attacker_indices)
    return admitted / offered if offered else float("nan")
