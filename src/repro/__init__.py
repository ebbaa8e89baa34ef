"""Token-Picker (DAC 2024) reproduction.

A complete, self-contained implementation of *Token-Picker: Accelerating
Attention in Text Generation with Minimized Memory Transfer via Probability
Estimation* (Park et al., DAC 2024), including every substrate the paper's
evaluation depends on:

* ``repro.core`` — the certified probability-estimation pruning algorithm,
  bit-chunk fixed-point arithmetic, margins, out-of-order scheduling.
* ``repro.model`` — a from-scratch NumPy autoregressive transformer with KV
  caching and a trainer (the language-model substrate).
* ``repro.workloads`` — synthetic corpora and calibrated attention-instance
  generators.
* ``repro.hw`` — cycle-approximate ToPick accelerator, HBM2 DRAM model,
  SpAtten comparator, energy/area models.
* ``repro.eval`` — the experiment harness regenerating every table and
  figure in the paper (see DESIGN.md for the index).

Quickstart::

    import numpy as np
    from repro import TokenPickerConfig, token_picker_attention

    rng = np.random.default_rng(0)
    q, K, V = rng.normal(size=64), rng.normal(size=(512, 64)), rng.normal(size=(512, 64))
    result = token_picker_attention(q, K, V, TokenPickerConfig(threshold=1e-3))
    print(result.stats.v_pruning_ratio, result.stats.total_reduction)
"""

__version__ = "1.0.0"

_LAZY = {
    "TokenPickerConfig": "repro.core.config",
    "token_picker_attention": "repro.core.pruning",
}
__all__ = [*_LAZY, "__version__"]


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
