"""Ablation — gradient aggregation rule at the parameter servers.

GuanYu uses Multi-Krum for phase 2; this ablation swaps in the median, the
trimmed mean and the (vulnerable) arithmetic mean under a worker attack.
"""

import dataclasses

from repro.experiments import run_gar_ablation, run_quorum_ablation
from repro.metrics import throughput_updates_per_second


def test_gar_ablation_robust_rules_survive_attack(bench_scale):
    """Robust GARs converge under attack; the arithmetic mean does not."""
    histories = run_gar_ablation(scale=bench_scale)
    print("\nGAR ablation — final accuracy under a corrupted-gradient attack")
    for rule, history in histories.items():
        print(f"  {rule:15s} {history.final_accuracy():.3f}")

    robust = {rule: h.final_accuracy() for rule, h in histories.items()
              if rule != "mean"}
    assert all(accuracy > 0.85 for accuracy in robust.values())
    assert histories["mean"].final_accuracy() < min(robust.values()) - 0.2


def test_quorum_ablation_tradeoff(bench_scale):
    """Section 5.3: larger quorums cost throughput but never per-update quality."""
    # Use a cluster shape whose admissible quorum range [2f̄+3, n̄−f̄] is wide.
    scale = dataclasses.replace(bench_scale, num_workers=12,
                                declared_byzantine_workers=1)
    histories = run_quorum_ablation(scale=scale)
    print("\nQuorum ablation — throughput vs. gradient quorum")
    for quorum, history in sorted(histories.items()):
        print(f"  q̄={quorum:2d}  throughput={throughput_updates_per_second(history):7.2f}"
              f"  final_acc={history.final_accuracy():.3f}")
    quorums = sorted(histories)
    small, large = quorums[0], quorums[-1]
    assert small < large
    assert (throughput_updates_per_second(histories[small])
            > throughput_updates_per_second(histories[large]))
    assert histories[large].final_accuracy() >= histories[small].final_accuracy() - 0.05
