#!/usr/bin/env python
"""Figure 4 story: vanilla averaging collapses under attack, GuanYu does not.

Three systems are trained on the same synthetic image-classification task:

1. a vanilla single-server deployment with no Byzantine node,
2. the same deployment with ONE Byzantine worker sending corrupted gradients,
3. GuanYu with Byzantine workers and an equivocating Byzantine server.

Run with::

    python examples/byzantine_attack_demo.py
"""

from repro.adversary import EquivocationAttack, RandomGradientAttack
from repro.experiments import ExperimentScale, run_figure4


def ascii_curve(history, width=48):
    """Render an accuracy-vs-updates curve as a one-line ASCII sparkline."""
    points = [(r.step, r.test_accuracy) for r in history.records
              if r.test_accuracy is not None]
    if not points:
        return "(no evaluations)"
    levels = " .:-=+*#%@"
    chars = []
    for _, accuracy in points[:width]:
        index = min(int(accuracy * (len(levels) - 1) + 0.5), len(levels) - 1)
        chars.append(levels[index])
    return "".join(chars)


def main():
    scale = ExperimentScale.small()
    scale.dataset = "images"       # CIFAR-10-shaped synthetic images
    scale.model = "mlp"
    scale.dataset_size = 1500
    scale.num_steps = 80
    scale.eval_every = 5

    result = run_figure4(
        scale=scale,
        worker_attack=RandomGradientAttack(scale=100.0),
        server_attack=EquivocationAttack(magnitude=50.0),
    )

    print("Figure 4 reproduction — impact of Byzantine players on convergence\n")
    print(f"{'system':<24} {'final accuracy':>15}   accuracy-over-updates")
    for name, history in result.histories.items():
        print(f"{name:<24} {history.final_accuracy():>15.3f}   {ascii_curve(history)}")

    accuracies = result.final_accuracies()
    print("\nObservations (compare with the paper's Figure 4):")
    print(f"  * vanilla TF reaches {accuracies['vanilla_tf']:.2f} accuracy "
          "without Byzantine nodes;")
    print(f"  * a single Byzantine worker drags vanilla TF down to "
          f"{accuracies['vanilla_tf_byzantine']:.2f};")
    print(f"  * GuanYu under worker AND server attacks still reaches "
          f"{accuracies['guanyu_byzantine']:.2f}.")


if __name__ == "__main__":
    main()
