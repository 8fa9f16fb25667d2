"""Table 1 — the CNN model (kernel sizes, strides, ~1.75 M parameters)."""

import numpy as np

from repro.experiments import table1_report
from repro.nn import PaperCNN
from repro.tensor import Tensor


def test_table1_architecture():
    """Regenerate Table 1: layer inventory and total parameter count."""
    report = table1_report()

    print("\nTable 1 — CNN model parameters")
    for layer in report["layers"]:
        print("  ", layer)
    print("   total parameters:", report["total_parameters"],
          "(paper: ~%d)" % report["paper_total_parameters"])

    assert abs(report["total_parameters"] - report["paper_total_parameters"]) < 2e4
    names = [layer["layer"] for layer in report["layers"]]
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
