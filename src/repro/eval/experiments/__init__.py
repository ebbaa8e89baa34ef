"""Per-figure/table experiment drivers (see DESIGN.md §4 for the index)."""

from repro.eval.experiments.fig2 import run_fig2
from repro.eval.experiments.fig3 import run_fig3
from repro.eval.experiments.fig4 import run_fig4
from repro.eval.experiments.fig8 import run_fig8
from repro.eval.experiments.fig9 import run_fig9
from repro.eval.experiments.fig10 import run_fig10
from repro.eval.experiments.tables import run_table1, run_table2

__all__ = [
    "run_fig10",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_fig8",
    "run_fig9",
    "run_table1",
    "run_table2",
]
