"""ASCII line charts for accuracy/loss curves.

The charts intentionally mimic the layout of the paper's figures: an x-axis
of model updates (or simulated seconds) and a y-axis of top-1 accuracy, with
one marker character per plotted system.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.history import TrainingHistory

#: marker characters assigned to successive series
_MARKERS = "ox+*#@%&"


def sparkline(values: Sequence[float], width: int = 40) -> str:
    """Render a sequence of values in [0, 1]-ish range as a one-line sparkline."""
    values = [v for v in values if v is not None and not np.isnan(v)]
    if not values:
        return ""
    levels = " .:-=+*#%@"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    picked = values[:: max(1, len(values) // width)][:width]
    chars = []
    for value in picked:
        index = int(round((value - low) / span * (len(levels) - 1)))
        chars.append(levels[index])
    return "".join(chars)


class AsciiChart:
    """A fixed-size character grid with axes, used to draw line charts."""

    def __init__(self, width: int = 70, height: int = 18,
                 x_label: str = "x", y_label: str = "y") -> None:
        if width < 20 or height < 6:
            raise ValueError("chart must be at least 20x6 characters")
        self.width = width
        self.height = height
        self.x_label = x_label
        self.y_label = y_label
        self._series: List[Tuple[str, np.ndarray, np.ndarray, str]] = []

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float],
                   marker: Optional[str] = None) -> None:
        """Add one curve; NaN y-values are dropped."""
        xs = np.asarray(list(xs), dtype=np.float64)
        ys = np.asarray(list(ys), dtype=np.float64)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same length")
        keep = ~np.isnan(ys)
        xs, ys = xs[keep], ys[keep]
        if xs.size == 0:
            return
        if marker is None:
            marker = _MARKERS[len(self._series) % len(_MARKERS)]
        self._series.append((name, xs, ys, marker))

    # ------------------------------------------------------------------ #
    def _bounds(self) -> Tuple[float, float, float, float]:
        all_x = np.concatenate([xs for _, xs, _, _ in self._series])
        all_y = np.concatenate([ys for _, _, ys, _ in self._series])
        x_min, x_max = float(all_x.min()), float(all_x.max())
        y_min, y_max = float(all_y.min()), float(all_y.max())
        if x_max == x_min:
            x_max = x_min + 1.0
        if y_max == y_min:
            y_max = y_min + 1.0
        return x_min, x_max, y_min, y_max

    def render(self) -> str:
        """Render the chart (axes, curves, legend) to a multi-line string."""
        if not self._series:
            return "(empty chart)"
        x_min, x_max, y_min, y_max = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]

        for _, xs, ys, marker in self._series:
            for x, y in zip(xs, ys):
                column = int(round((x - x_min) / (x_max - x_min) * (self.width - 1)))
                row = int(round((y - y_min) / (y_max - y_min) * (self.height - 1)))
                grid[self.height - 1 - row][column] = marker

        lines = []
        top_label = f"{y_max:.3f} |"
        bottom_label = f"{y_min:.3f} |"
        pad = max(len(top_label), len(bottom_label))
        for index, row in enumerate(grid):
            if index == 0:
                prefix = top_label.rjust(pad)
            elif index == self.height - 1:
                prefix = bottom_label.rjust(pad)
            else:
                prefix = "|".rjust(pad)
            lines.append(prefix + "".join(row))
        lines.append(" " * pad + "-" * self.width)
        x_axis = f"{x_min:.2f}".ljust(self.width - 10) + f"{x_max:.2f}"
        lines.append(" " * pad + x_axis)
        lines.append(" " * pad + f"({self.x_label} → ; {self.y_label} ↑)")
        legend = "   ".join(f"{marker}={name}" for name, _, _, marker in self._series)
        lines.append(" " * pad + legend)
        return "\n".join(lines)


def render_histories(histories: Dict[str, TrainingHistory], x_axis: str = "steps",
                     width: int = 70, height: int = 18) -> str:
    """Render accuracy curves of several training histories on one chart.

    Parameters
    ----------
    histories:
        Mapping from system name to its :class:`TrainingHistory`.
    x_axis:
        ``"steps"`` (Figure 3a/3c, Figure 4) or ``"time"`` (Figure 3b/3d).
    """
    if x_axis not in ("steps", "time"):
        raise ValueError("x_axis must be 'steps' or 'time'")
    chart = AsciiChart(width=width, height=height,
                       x_label="model updates" if x_axis == "steps" else "simulated s",
                       y_label="top-1 accuracy")
    for name, history in histories.items():
        xs = history.steps() if x_axis == "steps" else history.times()
        chart.add_series(name, xs, history.accuracies())
    return chart.render()
