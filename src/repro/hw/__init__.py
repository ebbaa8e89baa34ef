"""Hardware simulation: ToPick accelerator, HBM2, SpAtten, energy/area."""

from repro.hw.accelerator import (
    VARIANTS,
    StepResult,
    ToPickAccelerator,
    WorkloadResult,
)
from repro.hw.area import (
    K_PRUNE_MODULES,
    MODULE_AREA_POWER,
    V_PRUNE_MODULES,
    AreaPowerReport,
    area_power_report,
)
from repro.hw.dram import DRAMRequest, HBM2Model, streaming_cycles
from repro.hw.energy import (
    EnergyBreakdown,
    EnergyParams,
    EventCounts,
    integrate_energy,
)
from repro.hw.dram_banks import (
    AccessStats,
    BankTimings,
    BankedChannel,
    BankedHBM2,
    measure_access_pattern_cost,
)
from repro.hw.fixedpoint import (
    ConservativeExpUnit,
    FixedPointExp,
    FixedPointFormat,
    FixedPointLn,
)
from repro.hw.params import DEFAULT_PARAMS, HardwareParams
from repro.hw.pe_lane import (
    DAGUnit,
    PELane,
    PartialExpCalculator,
    ProbabilityGenerator,
    RequestPruneDecisionUnit,
    Scoreboard,
)
from repro.hw.serving import ServingSimulator, StepCost, tokens_per_second
from repro.hw.spatten import (
    GenerationAccesses,
    SpAttenBackend,
    SpAttenConfig,
    baseline_generation_accesses,
    spatten_generation_accesses,
    topick_generation_accesses,
)

__all__ = [
    "AccessStats",
    "AreaPowerReport",
    "BankTimings",
    "BankedChannel",
    "BankedHBM2",
    "ConservativeExpUnit",
    "DAGUnit",
    "FixedPointExp",
    "FixedPointFormat",
    "FixedPointLn",
    "PELane",
    "PartialExpCalculator",
    "ProbabilityGenerator",
    "RequestPruneDecisionUnit",
    "Scoreboard",
    "ServingSimulator",
    "StepCost",
    "measure_access_pattern_cost",
    "tokens_per_second",
    "DEFAULT_PARAMS",
    "DRAMRequest",
    "EnergyBreakdown",
    "EnergyParams",
    "EventCounts",
    "GenerationAccesses",
    "HBM2Model",
    "HardwareParams",
    "K_PRUNE_MODULES",
    "MODULE_AREA_POWER",
    "SpAttenBackend",
    "SpAttenConfig",
    "StepResult",
    "ToPickAccelerator",
    "VARIANTS",
    "V_PRUNE_MODULES",
    "WorkloadResult",
    "area_power_report",
    "baseline_generation_accesses",
    "integrate_energy",
    "spatten_generation_accesses",
    "streaming_cycles",
    "topick_generation_accesses",
]
