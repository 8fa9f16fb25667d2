"""Table 1 — the CNN model (kernel sizes, strides, ~1.75 M parameters)."""

import numpy as np

from repro.campaign import ScenarioSpec
from repro.experiments import EXPERIMENTS
from repro.nn import PaperCNN
from repro.tensor import Tensor


def test_table1_architecture():
    """Regenerate Table 1: layer inventory and total parameter count."""
    rows, _ = EXPERIMENTS["table1"].run(ScenarioSpec(), None, None)
    *layers, total = rows

    print("\nTable 1 — CNN model parameters")
    for layer in layers:
        print("  ", layer)
    print("   total parameters:", total["parameters"],
          "(paper: ~%d)" % total["paper"])

    assert abs(total["parameters"] - total["paper"]) < 2e4
    names = [layer["layer"] for layer in layers]
    assert names == ["Input", "Conv1", "Pool1", "Conv2", "Pool2", "FC1", "FC2", "FC3"]


def test_table1_forward_backward_pass():
    """One forward/backward pass of the Table 1 CNN on a CIFAR-sized batch."""
    model = PaperCNN()
    batch = Tensor(np.random.default_rng(0).normal(size=(4, 3, 32, 32)))

    model.zero_grad()
    out = model(batch)
    out.sum().backward()
    assert out.shape == (4, 10)
    assert np.any(model.get_flat_gradient() != 0.0)
