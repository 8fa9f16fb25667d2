"""Ablation — GuanYu against the full attack suite.

The paper states "we tested different possible Byzantine behaviors (on both
ends: workers and parameter servers) and we got approximately similar
results"; this sweep reproduces that claim across eight attacks.
"""

from repro.experiments import run_attack_sweep


def test_attack_sweep_guanyu_converges_under_every_attack(bench_scale):
    histories = run_attack_sweep(scale=bench_scale)
    print("\nAttack sweep — GuanYu final accuracy per attack")
    for attack, history in histories.items():
        print(f"  {attack:20s} {history.final_accuracy():.3f}")

    assert len(histories) >= 8
    for attack, history in histories.items():
        assert history.final_accuracy() > 0.8, f"GuanYu failed under {attack}"
