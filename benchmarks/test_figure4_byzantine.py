"""Figure 4 — impact of Byzantine players on convergence.

The paper shows that vanilla TensorFlow cannot tolerate a single Byzantine
participant while GuanYu (fwrk=5, fps=1) keeps converging under simultaneous
worker and server attacks.
"""

import pytest

from repro.experiments import EXPERIMENTS


def _final_accuracies(base):
    rows, _ = EXPERIMENTS["figure4"].run(base, None, None)
    return {row["system"]: row["final_accuracy"] for row in rows}


@pytest.fixture(scope="module")
def figure4(bench_base):
    return _final_accuracies(bench_base)


def _print_result(accuracies):
    print("\nFigure 4 — final accuracies under attack")
    for name, accuracy in accuracies.items():
        print(f"  {name:22s} {accuracy:.3f}")


def test_figure4_vanilla_collapses_guanyu_survives(figure4):
    """The headline claim: one Byzantine worker breaks vanilla, not GuanYu."""
    _print_result(figure4)
    accuracies = figure4
    clean = accuracies["vanilla_tf"]
    attacked_vanilla = accuracies["vanilla_tf_byzantine"]
    attacked_guanyu = accuracies["guanyu_byzantine"]

    assert clean > 0.9
    # Vanilla averaging under a corrupted-gradient attack loses most of its
    # accuracy; GuanYu stays within a few points of the clean run.
    assert attacked_vanilla < clean - 0.3
    assert attacked_guanyu > clean - 0.1
    assert attacked_guanyu > attacked_vanilla + 0.3


def test_figure4_alternative_attack_pair(bench_base):
    """The paper reports similar results for other Byzantine behaviours."""
    accuracies = _final_accuracies(bench_base.replace(
        worker_attack={"name": "reversed_gradient", "kwargs": {"factor": 10.0}},
        server_attack={"name": "corrupted_model",
                       "kwargs": {"noise_scale": 100.0}}))
    _print_result(accuracies)
    assert accuracies["guanyu_byzantine"] > 0.85
    assert accuracies["vanilla_tf_byzantine"] < accuracies["guanyu_byzantine"]
