"""NumPy transformer LM substrate (models, backends, trainer)."""

_LAZY = {
    "TinyGPT": "repro.model.transformer",
    "TrainConfig": "repro.model.trainer",
    "tiny_config": "repro.model.config",
    "train": "repro.model.trainer",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
