"""Ablation — GuanYu against the full attack suite.

The paper states "we tested different possible Byzantine behaviors (on both
ends: workers and parameter servers) and we got approximately similar
results"; this sweep reproduces that claim across eight attacks.
"""

from repro.experiments import EXPERIMENTS


def test_attack_sweep_guanyu_converges_under_every_attack(bench_base):
    rows, _ = EXPERIMENTS["attack-sweep"].run(bench_base, None, None)
    accuracies = {row["system"]: row["final_accuracy"] for row in rows}
    print("\nAttack sweep — GuanYu final accuracy per attack")
    for attack, accuracy in accuracies.items():
        print(f"  {attack:20s} {accuracy:.3f}")

    assert len(accuracies) >= 8
    for attack, accuracy in accuracies.items():
        assert accuracy > 0.8, f"GuanYu failed under {attack}"
