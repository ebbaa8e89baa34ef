"""Hardware simulation: ToPick accelerator, HBM2, SpAtten, energy/area."""

_LAZY = {
    "HardwareParams": "repro.hw.params",
    "ToPickAccelerator": "repro.hw.accelerator",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
