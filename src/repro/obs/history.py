"""Training history: the per-step record behind every figure reproduction.

It lives in the observability layer so that *all* "what happened during a
run" data structures share one package; :mod:`repro.metrics` re-exports
both record types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["StepRecord", "TrainingHistory"]


@dataclass
class StepRecord:
    """Measurements taken at one model update.

    Attributes
    ----------
    step:
        Learning step index (the x-axis of Figure 3(a)/(c) and Figure 4).
    simulated_time:
        Simulated wall-clock at which the update completed (the x-axis of
        Figure 3(b)/(d)).
    train_loss:
        Loss of the aggregated mini-batch gradient's model, when recorded.
    test_accuracy:
        Top-1 accuracy on the held-out set, when evaluated at this step.
    max_server_spread:
        ``max_{a,b} ||θ_a − θ_b||`` across correct parameter servers — the
        quantity the contraction argument drives to zero.
    learning_rate:
        Learning rate used for this update.
    phase_durations:
        Optional per-phase timing breakdown of the GuanYu step (keys
        ``"phase1_models_and_gradients"``, ``"phase2_server_update"``,
        ``"phase3_server_exchange"``), used by the §5.3 overhead attribution.
    """

    step: int
    simulated_time: float
    train_loss: Optional[float] = None
    test_accuracy: Optional[float] = None
    max_server_spread: Optional[float] = None
    learning_rate: Optional[float] = None
    phase_durations: Optional[Dict[str, float]] = None

    def to_dict(self) -> Dict:
        """The record as ``dataclasses.asdict`` gives it, field by field —
        a history serialises thousands of these, and ``asdict`` recurses
        through ``copy.deepcopy`` for each."""
        phases = self.phase_durations
        return {
            "step": self.step,
            "simulated_time": self.simulated_time,
            "train_loss": self.train_loss,
            "test_accuracy": self.test_accuracy,
            "max_server_spread": self.max_server_spread,
            "learning_rate": self.learning_rate,
            "phase_durations": None if phases is None else dict(phases),
        }


@dataclass
class TrainingHistory:
    """Ordered collection of :class:`StepRecord` plus experiment metadata."""

    label: str = "experiment"
    config: Dict = field(default_factory=dict)
    records: List[StepRecord] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def add(self, record: StepRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------ #
    # Series extraction (the "columns" of the paper's figures)
    # ------------------------------------------------------------------ #
    def steps(self) -> np.ndarray:
        return np.array([r.step for r in self.records])

    def times(self) -> np.ndarray:
        return np.array([r.simulated_time for r in self.records])

    def accuracies(self) -> np.ndarray:
        return np.array([np.nan if r.test_accuracy is None else r.test_accuracy
                         for r in self.records])

    def losses(self) -> np.ndarray:
        return np.array([np.nan if r.train_loss is None else r.train_loss
                         for r in self.records])

    def server_spreads(self) -> np.ndarray:
        return np.array([np.nan if r.max_server_spread is None else r.max_server_spread
                         for r in self.records])

    # ------------------------------------------------------------------ #
    # Summary helpers
    # ------------------------------------------------------------------ #
    def final_accuracy(self) -> float:
        """Last recorded test accuracy (NaN when never evaluated)."""
        for record in reversed(self.records):
            if record.test_accuracy is not None:
                return record.test_accuracy
        return float("nan")

    def best_accuracy(self) -> float:
        """Best recorded test accuracy (NaN when never evaluated)."""
        values = [r.test_accuracy for r in self.records if r.test_accuracy is not None]
        return max(values) if values else float("nan")

    def total_time(self) -> float:
        """Simulated time of the last update."""
        return self.records[-1].simulated_time if self.records else 0.0

    def total_steps(self) -> int:
        """Number of model updates recorded."""
        return self.records[-1].step + 1 if self.records else 0

    def mean_phase_durations(self) -> Dict[str, float]:
        """Average per-phase durations over all records that carry them."""
        totals: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for record in self.records:
            if not record.phase_durations:
                continue
            for phase, duration in record.phase_durations.items():
                totals[phase] = totals.get(phase, 0.0) + duration
                counts[phase] = counts.get(phase, 0) + 1
        return {phase: totals[phase] / counts[phase] for phase in totals}

    # ------------------------------------------------------------------ #
    # Serialisation
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "label": self.label,
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict) -> "TrainingHistory":
        history = cls(label=payload.get("label", "experiment"),
                      config=payload.get("config", {}))
        for record in payload.get("records", []):
            history.add(StepRecord(**record))
        return history

    @classmethod
    def from_json(cls, text: str) -> "TrainingHistory":
        return cls.from_dict(json.loads(text))
