"""Terminal plots for the figure drivers (histograms, heatmaps).

The drivers print their numeric series, and these helpers render the
paper's histogram and heatmap figures as terminal graphics so
`tokenpicker figX` output *looks* like the figure it regenerates.
Pure-text, dependency-free.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

_SHADES = " .:-=+*#%@"


def histogram(
    counts: Sequence[float],
    bin_edges: Sequence[float],
    height: int = 8,
    title: Optional[str] = None,
) -> str:
    """Vertical histogram from precomputed counts (Fig. 3 style)."""
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        return title or ""
    if len(bin_edges) != len(counts) + 1:
        raise ValueError("need len(bin_edges) == len(counts) + 1")
    if height < 1:
        raise ValueError("height must be >= 1")
    peak = counts.max() if counts.max() > 0 else 1.0
    rows = []
    for level in range(height, 0, -1):
        cut = peak * (level - 0.5) / height
        rows.append("".join("#" if c >= cut else " " for c in counts))
    lines = [title] if title else []
    lines.extend(rows)
    lines.append("-" * len(counts))
    lines.append(f"[{bin_edges[0]:.2f} .. {bin_edges[-1]:.2f}]  peak={peak:.0f}")
    return "\n".join(lines)


def heatmap(
    matrix: np.ndarray,
    row_labels: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Shade-character heatmap (Fig. 4a style); values scaled per matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    peak = matrix.max() if matrix.size and matrix.max() > 0 else 1.0
    if row_labels is not None and len(row_labels) != matrix.shape[0]:
        raise ValueError("row_labels length mismatch")
    label_w = max((len(l) for l in row_labels), default=0) if row_labels else 0
    lines = [title] if title else []
    for i, row in enumerate(matrix):
        cells = "".join(
            _SHADES[min(int(v / peak * (len(_SHADES) - 1)), len(_SHADES) - 1)]
            for v in row
        )
        prefix = (row_labels[i].ljust(label_w) + " ") if row_labels else ""
        lines.append(f"{prefix}[{cells}]")
    lines.append(f"scale: ' '=0 .. '@'={peak:.3f}")
    return "\n".join(lines)
