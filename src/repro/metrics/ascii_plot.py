"""ASCII line charts for the Figure 8–10 series.

The paper's figures plot one metric against the experiment number, one
curve per agent with S1/S2 and S11/S12 highlighted and the grid total in
bold.  :func:`ascii_line_chart` renders the same shape in a terminal:
highlighted series draw with their own marker letters, background series
with ``·``, and the total with ``#``.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Optional, Sequence

from repro.errors import ValidationError

__all__ = ["ascii_line_chart"]


def _interpolate(values: Sequence[float], x: float) -> float:
    """Piecewise-linear interpolation of *values* at fractional index *x*."""
    low = int(math.floor(x))
    high = min(low + 1, len(values) - 1)
    frac = x - low
    return values[low] * (1 - frac) + values[high] * frac


def ascii_line_chart(
    series: Mapping[str, Sequence[float]],
    *,
    width: int = 60,
    height: int = 16,
    highlight: Optional[Sequence[str]] = None,
    total: str = "Total",
    x_labels: Optional[Sequence[str]] = None,
    title: str = "",
) -> str:
    """Render *series* as a multi-curve ASCII chart.

    Parameters
    ----------
    series:
        ``name -> values`` — every series must share one length >= 2.
    width, height:
        Plot area size in characters.
    highlight:
        Series drawn with their own marker (first character of the name's
        trailing digits, or of the name); others draw as ``·``.  The
        *total* series always draws as ``#`` on top.
    x_labels:
        Labels under the x axis (defaults to 1..n).
    title:
        Optional heading.
    """
    if not series:
        raise ValidationError("series must not be empty")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValidationError(f"series lengths differ: {sorted(lengths)}")
    (n_points,) = lengths
    if n_points < 2:
        raise ValidationError("series need at least 2 points")
    if width < 10 or height < 3:
        raise ValidationError("chart area too small")

    finite = [
        x for v in series.values() for x in v if x == x and abs(x) != math.inf
    ]
    if not finite:
        raise ValidationError("series contain no finite values")
    lo = min(finite)
    hi = max(finite)
    if hi == lo:
        hi = lo + 1.0

    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    def to_row(value: float) -> int:
        frac = (value - lo) / (hi - lo)
        return (height - 1) - int(round(frac * (height - 1)))

    highlight_set = list(highlight or [])
    palette = "abcdefghijklmnopqrstuvwxyz"
    markers = {
        name: palette[i % len(palette)] for i, name in enumerate(highlight_set)
    }

    def draw(name: str, marker: str) -> None:
        # Series with NaN points (e.g. ε of a resource that executed no
        # tasks) are skipped where undefined rather than rejected.
        values = series[name]
        for col in range(width):
            x = col / (width - 1) * (n_points - 1)
            value = _interpolate(values, x)
            if value != value or abs(value) == math.inf:
                continue
            row = to_row(value)
            grid[row][col] = marker

    # Paint background series first, then highlights, then the total.
    for name in series:
        if name == total or name in highlight_set:
            continue
        draw(name, "·")
    for name in highlight_set:
        if name in series:
            draw(name, markers[name])
    if total in series:
        draw(total, "#")

    # Axis labels.
    label_width = max(len(f"{hi:.0f}"), len(f"{lo:.0f}")) + 1
    lines: List[str] = []
    if title:
        lines.append(title)
    for row in range(height):
        if row == 0:
            label = f"{hi:.0f}"
        elif row == height - 1:
            label = f"{lo:.0f}"
        else:
            label = ""
        lines.append(f"{label:>{label_width}} |{''.join(grid[row])}")
    lines.append(" " * label_width + " +" + "-" * width)
    labels = list(x_labels) if x_labels is not None else [
        str(i + 1) for i in range(n_points)
    ]
    axis = [" "] * width
    spread = max(len(labels) - 1, 1)
    for i, text in enumerate(labels):
        col = int(i / spread * (width - 1))
        col = min(col, width - len(text))
        for j, ch in enumerate(text):
            axis[col + j] = ch
    lines.append(" " * label_width + "  " + "".join(axis))
    legend = "legend: # = " + total
    if highlight_set:
        legend += ", " + ", ".join(
            f"{markers[name]} = {name}" for name in highlight_set if name in series
        )
    legend += ", · = others"
    lines.append(" " * label_width + "  " + legend)
    return "\n".join(lines)
