"""Table 1: the CNN model architecture (kernel sizes, strides, parameter count)."""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.nn.models import PaperCNN
from repro.obs.history import TrainingHistory

#: the paper's stated parameter count ("roughly 1.75 million")
PAPER_TOTAL_PARAMETERS = 1_750_000


def run_table1(base: Optional[ScenarioSpec] = None,
               store: Optional[ResultStore] = None,
               processes: Optional[int] = None
               ) -> Tuple[List[Dict], Dict[str, TrainingHistory]]:
    """Build the Table 1 reproduction: one row per layer of the paper's CNN,
    then a ``Total`` row whose ``paper`` column is the paper's count.

    Nothing trains, so there are no histories; the model is fixed, so the
    runner's arguments are accepted and ignored.
    """
    model = PaperCNN()
    rows: List[Dict[str, object]] = [
        {"layer": "Input", "shape": "3x32x32"},
        {"layer": "Conv1", "kernel": "5x5x64", "stride": "1x1",
         "parameters": int(model.conv1.num_parameters())},
        {"layer": "Pool1", "kernel": "3x3", "stride": "2x2", "parameters": 0},
        {"layer": "Conv2", "kernel": "5x5x64", "stride": "1x1",
         "parameters": int(model.conv2.num_parameters())},
        {"layer": "Pool2", "kernel": "3x3", "stride": "2x2", "parameters": 0},
        {"layer": "FC1", "units": 384, "parameters": int(model.fc1.num_parameters())},
        {"layer": "FC2", "units": 192, "parameters": int(model.fc2.num_parameters())},
        {"layer": "FC3", "units": 10, "parameters": int(model.fc3.num_parameters())},
        {"layer": "Total", "parameters": int(model.num_parameters()),
         "paper": PAPER_TOTAL_PARAMETERS},
    ]
    return rows, {}
