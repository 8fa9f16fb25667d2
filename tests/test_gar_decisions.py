"""Tests for GAR decision provenance (repro.aggregation.decision)."""

import math

import numpy as np
import pytest

from repro.aggregation import (
    attacker_acceptance_rate,
    decide,
    get_rule,
)


def honest_and_attackers(num_honest=8, num_attackers=2, dim=5, scale=100.0):
    """Clustered honest vectors followed by far-away attacker vectors.

    Returns ``(vectors, attacker_indices)`` with the attackers at the end
    of the stack.
    """
    rng = np.random.default_rng(42)
    honest = rng.normal(0.0, 0.1, size=(num_honest, dim))
    attackers = scale * np.sign(rng.normal(size=(num_attackers, dim)))
    vectors = list(honest) + list(attackers)
    attacker_indices = list(range(num_honest, num_honest + num_attackers))
    return vectors, attacker_indices


class TestKrumFamilyDecisions:
    def test_krum_rejects_crafted_outliers(self):
        vectors, attackers = honest_and_attackers()
        decision = decide(get_rule("krum", num_byzantine=2), vectors,
                          attacker_indices=attackers)
        assert decision.rule == "krum"
        assert len(decision.selected) == 1
        assert decision.attackers_selected == 0
        assert decision.acceptance_rate == 0.0
        # Krum scores: each attacker must score worse than every honest one.
        assert decision.scores is not None
        worst_honest = max(decision.scores[:8])
        assert all(decision.scores[i] > worst_honest for i in attackers)

    def test_multi_krum_rejects_crafted_outliers(self):
        vectors, attackers = honest_and_attackers()
        rule = get_rule("multi_krum", num_byzantine=2)
        decision = decide(rule, vectors, attacker_indices=attackers)
        assert decision.attackers_selected == 0
        assert decision.acceptance_rate == 0.0
        assert set(decision.selected).isdisjoint(attackers)
        # The selection stays close to the honest mean.
        assert decision.distance_to_honest_mean < 1.0

    @pytest.mark.parametrize("rule, num_honest, attacker_rows", [
        ("bulyan", 10, None),
        # the marginal median drops the f largest-norm inputs: a row of
        # 100s is the one it drops
        ("marginal_median", 8, [np.full(5, 100.0)]),
    ])
    def test_trimming_rules_reject_crafted_outliers(self, rule, num_honest,
                                                    attacker_rows):
        vectors, attackers = honest_and_attackers(num_honest=num_honest)
        if attacker_rows is not None:
            vectors = vectors[:num_honest] + attacker_rows
            attackers = [num_honest]
        decision = decide(get_rule(rule, num_byzantine=1), vectors,
                          attacker_indices=attackers)
        assert decision.attackers_selected == 0
        assert decision.acceptance_rate == 0.0
        assert set(decision.selected) <= set(range(num_honest))

    def test_bulyan_without_byzantine_degenerates_to_all(self):
        vectors, _ = honest_and_attackers(num_attackers=0)
        decision = decide(get_rule("bulyan", num_byzantine=0), vectors)
        assert decision.selected == list(range(8))


class TestSelectionFreeRules:
    def test_mean_accepts_every_attacker(self):
        vectors, attackers = honest_and_attackers()
        decision = decide(get_rule("mean"), vectors,
                          attacker_indices=attackers)
        # Selection-free rules: every input contributes to the output.
        assert decision.selected == list(range(10))
        assert decision.attackers_selected == 2
        assert decision.acceptance_rate == 1.0
        assert decision.scores is None
        # The attacker pull shows in the honest-mean distance.
        assert decision.distance_to_honest_mean > 1.0

    def test_median_reports_full_selection_but_small_distance(self):
        vectors, attackers = honest_and_attackers()
        decision = decide(get_rule("median"), vectors,
                          attacker_indices=attackers)
        assert decision.acceptance_rate == 1.0
        assert decision.distance_to_honest_mean < 1.0


class TestDecisionPlumbing:
    def test_no_known_attackers_means_no_rate(self):
        vectors, _ = honest_and_attackers()
        decision = decide(get_rule("multi_krum", num_byzantine=2), vectors)
        assert decision.attacker_indices == []
        assert decision.acceptance_rate is None
        payload = decision.to_dict()
        assert "acceptance_rate" not in payload
        assert payload["rule"] == "multi_krum"

    def test_to_dict_is_json_friendly(self):
        import json

        vectors, attackers = honest_and_attackers()
        decision = decide(get_rule("multi_krum", num_byzantine=2), vectors,
                          attacker_indices=attackers)
        payload = decision.to_dict()
        json.dumps(payload)  # raises on numpy scalars / arrays
        assert payload["num_inputs"] == 10
        assert payload["attacker_indices"] == attackers

    def test_decision_does_not_mutate_inputs(self):
        vectors, attackers = honest_and_attackers()
        copies = [vector.copy() for vector in vectors]
        decide(get_rule("multi_krum", num_byzantine=2), vectors,
               attacker_indices=attackers)
        for vector, copy in zip(vectors, copies):
            assert np.array_equal(vector, copy)


class TestAcceptanceRateAggregation:
    def test_rate_across_decisions(self):
        vectors, attackers = honest_and_attackers()
        robust = decide(get_rule("multi_krum", num_byzantine=2), vectors,
                        attacker_indices=attackers)
        naive = decide(get_rule("mean"), vectors,
                       attacker_indices=attackers)
        assert attacker_acceptance_rate([robust, naive]) == \
            pytest.approx(0.5)
        assert attacker_acceptance_rate([robust, robust]) == 0.0
        assert attacker_acceptance_rate([naive]) == 1.0

    def test_rate_with_no_attackers_is_nan(self):
        vectors, _ = honest_and_attackers()
        decision = decide(get_rule("mean"), vectors)
        assert math.isnan(attacker_acceptance_rate([decision]))
        assert math.isnan(attacker_acceptance_rate([]))
