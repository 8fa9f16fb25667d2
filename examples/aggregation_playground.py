#!/usr/bin/env python
"""Compare gradient aggregation rules on synthetic gradient clouds under attack.

The distributed protocol aside, the heart of Byzantine-resilient SGD is the
choice of gradient aggregation rule (GAR).  This example builds a cloud of
"honest" gradients plus a configurable number of adversarial ones, feeds it
to every registered GAR, and reports how far each output strays from the
honest mean — the practical meaning of the (α, f)-resilience definitions.

Run with::

    python examples/aggregation_playground.py
"""

import numpy as np

from repro.aggregation import available_rules, byzantine_resilience_report, get_rule
from repro.adversary import (
    AttackContext,
    LittleIsEnoughAttack,
    RandomGradientAttack,
)


def build_attacked_cloud(attack, num_correct=13, num_byzantine=5, dimension=1000,
                         seed=0):
    """Honest gradients plus `num_byzantine` adversarial copies."""
    rng = np.random.default_rng(seed)
    honest = rng.normal(0.1, 1.0, size=(num_correct, dimension))
    byzantine = []
    for _ in range(num_byzantine):
        context = AttackContext(step=0, honest_value=honest.mean(axis=0),
                                peer_values=list(honest), rng=rng)
        byzantine.append(attack.corrupt_gradient(context))
    return honest, np.stack(byzantine)


def main():
    scenarios = {
        "corrupted gradients (scale=100)": RandomGradientAttack(scale=100.0),
        "a-little-is-enough (z=1.5)": LittleIsEnoughAttack(z_factor=1.5),
    }
    num_byzantine = 5

    for title, attack in scenarios.items():
        honest, byzantine = build_attacked_cloud(attack, num_byzantine=num_byzantine)
        print(f"\n=== {title} — 13 honest + {num_byzantine} Byzantine gradients ===")
        print(f"{'rule':<18} {'deviation from honest mean':>27} "
              f"{'inside honest box':>18}")
        for name in available_rules():
            rule = get_rule(name, num_byzantine=num_byzantine)
            try:
                report = byzantine_resilience_report(rule, honest, byzantine)
            except ValueError as error:
                print(f"{name:<18} {'(needs more inputs: ' + str(error) + ')':>27}")
                continue
            print(f"{name:<18} {report.deviation_from_correct_mean:>27.3f} "
                  f"{str(report.within_correct_hull):>18}")

    print("\nReading the table: the arithmetic mean is dragged arbitrarily far by "
          "the attackers, while the robust rules (median, Multi-Krum, Bulyan, ...) "
          "stay within — or very close to — the honest gradients' range.  GuanYu "
          "uses the coordinate-wise median for models and Multi-Krum for gradients.")


if __name__ == "__main__":
    main()
