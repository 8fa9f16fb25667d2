"""Ablation — gradient aggregation rule at the parameter servers.

GuanYu uses Multi-Krum for phase 2; this ablation swaps in the median, the
trimmed mean and the (vulnerable) arithmetic mean under a worker attack.
"""

from repro.experiments import EXPERIMENTS


def test_gar_ablation_robust_rules_survive_attack(bench_base):
    """Robust GARs converge under attack; the arithmetic mean does not."""
    rows, _ = EXPERIMENTS["gars"].run(bench_base, None, None)
    accuracies = {row["system"]: row["final_accuracy"] for row in rows}
    print("\nGAR ablation — final accuracy under a corrupted-gradient attack")
    for rule, accuracy in accuracies.items():
        print(f"  {rule:15s} {accuracy:.3f}")

    robust = {rule: accuracy for rule, accuracy in accuracies.items()
              if rule != "mean"}
    assert all(accuracy > 0.85 for accuracy in robust.values())
    assert accuracies["mean"] < min(robust.values()) - 0.2


def test_quorum_ablation_tradeoff(bench_base):
    """Section 5.3: larger quorums cost throughput but never per-update quality."""
    # Use a cluster shape whose admissible quorum range [2f̄+3, n̄−f̄] is wide.
    base = bench_base.replace(num_workers=12, declared_byzantine_workers=1)
    rows, _ = EXPERIMENTS["quorums"].run(base, None, None)
    by_quorum = {row["gradient_quorum"]: row for row in rows}
    print("\nQuorum ablation — throughput vs. gradient quorum")
    for quorum, row in sorted(by_quorum.items()):
        print(f"  q̄={quorum:2d}  throughput={row['throughput']:7.2f}"
              f"  final_acc={row['final_accuracy']:.3f}")
    quorums = sorted(by_quorum)
    small, large = quorums[0], quorums[-1]
    assert small < large
    assert by_quorum[small]["throughput"] > by_quorum[large]["throughput"]
    assert (by_quorum[large]["final_accuracy"]
            >= by_quorum[small]["final_accuracy"] - 0.05)
