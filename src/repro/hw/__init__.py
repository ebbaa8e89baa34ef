"""Hardware simulation: ToPick accelerator, HBM2, SpAtten, energy/area."""

from repro.hw.accelerator import ToPickAccelerator
from repro.hw.params import HardwareParams

__all__ = [
    "HardwareParams",
    "ToPickAccelerator",
]
