"""Empirical breakdown points: where each GAR actually stops working.

Runs the bisection search of :mod:`repro.experiments.breakdown` on a tiny
workload and prints the resilience-boundary table: for each aggregation
rule, the largest number of colluding attackers it survives under the
omniscient worst-case adversary and under plain gradient reversal, against
the ``n̄ ≥ 3f̄ + 3`` admissibility ceiling of the cluster arithmetic.

Run from the repository root::

    PYTHONPATH=src python examples/breakdown_demo.py
"""

from repro.campaign import ScenarioSpec
from repro.experiments.breakdown import run_breakdown_search
from repro.plotting import format_table


def main() -> None:
    print("Searching breakdown points (bisection over the attacker count;"
          " every cell is one small GuanYu training run)...\n")
    rows, runs = run_breakdown_search(
        base=ScenarioSpec(num_steps=15),
        gars=("mean", "median", "multi_krum"),
        adversaries=("omniscient_descent", "reversed_gradient"))

    print(format_table(rows, float_format="{:.4f}"))
    print()
    for name, history in runs.items():
        print(f"  {name:<44} final loss {history.records[-1].train_loss:.3f}")
    print("\nReading the table: plain averaging breaks at the first "
          "omniscient attacker\n(breakdown_f = 0) while the "
          "Byzantine-resilient rules hold to the admissible\nmaximum — "
          "the boundary the paper proves.")


if __name__ == "__main__":
    main()
