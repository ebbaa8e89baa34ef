"""Per-figure/table experiment drivers (see DESIGN.md §4 for the index)."""

_LAZY = {
    "run_fig10": "repro.eval.experiments.fig10",
    "run_fig2": "repro.eval.experiments.fig2",
    "run_fig3": "repro.eval.experiments.fig3",
    "run_fig4": "repro.eval.experiments.fig4",
    "run_fig8": "repro.eval.experiments.fig8",
    "run_fig9": "repro.eval.experiments.fig9",
    "run_table1": "repro.eval.experiments.tables",
    "run_table2": "repro.eval.experiments.tables",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
