"""Plain-text table rendering for experiment reports.

The benchmark harness prints the same rows/series the paper's tables and
figures report; a single formatter keeps that output consistent and easy to
diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence


def _stringify(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def format_table(
    rows: Iterable[Sequence],
    headers: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table.

    >>> print(format_table([[1, 2.5]], headers=["a", "b"]))
    a | b
    --+----
    1 | 2.5
    """
    str_rows: List[List[str]] = [[_stringify(c) for c in row] for row in rows]
    if headers is not None:
        str_rows.insert(0, [str(h) for h in headers])
    if not str_rows:
        return title or ""
    n_cols = max(len(r) for r in str_rows)
    for row in str_rows:
        row.extend([""] * (n_cols - len(row)))
    widths = [max(len(r[c]) for r in str_rows) for c in range(n_cols)]
    lines = []
    if title:
        lines.append(title)
    for idx, row in enumerate(str_rows):
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if headers is not None and idx == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines)
