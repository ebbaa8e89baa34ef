"""Hardware configuration of the ToPick accelerator (Table 1).

All timing in the simulator is expressed in **accelerator cycles** at the
500 MHz target frequency.  The HBM2 interface (8 channels x 128 bit at
2 GHz, 32 GB/s per channel) therefore delivers 64 bytes per channel per
accelerator cycle — 512 B/cycle aggregate, which is exactly what 16 PE
lanes consume when each processes one 64-dim 4-bit chunk (32 B) per cycle
and two chunks arrive per channel per cycle.  That balance is why the
paper sets the lane count to 16 (Sec. 5.1.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import QuantConfig
from repro.hw.dram import DRAMTierParams


@dataclass(frozen=True)
class HardwareParams:
    """Structural and timing parameters (paper Table 1 defaults)."""

    # compute
    n_lanes: int = 16
    lane_dim: int = 64  # multipliers per lane (matches head_dim = 64)
    clock_ghz: float = 0.5
    scoreboard_entries: int = 32
    # memory system
    n_channels: int = 8
    channel_bytes_per_cycle: int = 64  # 32 GB/s per channel at 500 MHz
    dram_latency_cycles: int = 24  # ~48 ns request-to-data at 500 MHz
    k_buffer_bytes: int = 192 * 1024
    v_buffer_bytes: int = 192 * 1024
    operand_buffer_bytes: int = 512
    # number format
    quant: QuantConfig = field(default_factory=QuantConfig)

    def __post_init__(self) -> None:
        if self.n_lanes < 1 or self.n_channels < 1:
            raise ValueError("n_lanes and n_channels must be >= 1")
        if self.channel_bytes_per_cycle < 1:
            raise ValueError("channel_bytes_per_cycle must be >= 1")
        if self.dram_latency_cycles < 1:
            raise ValueError("dram_latency_cycles must be >= 1")
        if self.clock_ghz <= 0:
            raise ValueError("clock_ghz must be positive")

    # --- derived quantities ---------------------------------------------------
    @property
    def peak_bandwidth_gbs(self) -> float:
        """Aggregate DRAM bandwidth in GB/s (paper: 256 GB/s)."""
        return self.n_channels * self.channel_bytes_per_cycle * self.clock_ghz

    @property
    def bytes_per_cycle(self) -> int:
        """Aggregate DRAM bytes per accelerator cycle."""
        return self.n_channels * self.channel_bytes_per_cycle

    @property
    def hbm_tier(self) -> DRAMTierParams:
        """The HBM2 interface as a closed-form streaming tier."""
        return DRAMTierParams(
            self.n_channels, self.channel_bytes_per_cycle, self.dram_latency_cycles
        )

    def chunk_bytes(self, head_dim: int) -> int:
        """Bytes of one K bit-chunk for a ``head_dim`` vector."""
        bits = head_dim * self.quant.chunk_bits
        return max(1, bits // 8)

    def vector_bytes(self, head_dim: int) -> int:
        """Bytes of one full-precision K or V vector."""
        bits = head_dim * self.quant.total_bits
        return max(1, bits // 8)


@dataclass(frozen=True)
class InterconnectParams:
    """The modelled shard-to-shard link (tensor-parallel all-gather).

    A head-sharded step ends with each worker shipping its kept (head,
    token) partial outputs to every peer; the transfer is bandwidth +
    fixed-latency, the textbook alpha-beta model.  Defaults approximate
    one NVLink-class link lane at the accelerator's 0.5 GHz modelled
    clock (~32 GB/s effective) with a sub-microsecond launch/sync
    overhead.
    """

    #: payload bytes the link moves per accelerator cycle
    link_bytes_per_cycle: float = 64.0
    #: fixed per-collective launch + synchronisation overhead
    latency_cycles: int = 500

    def __post_init__(self) -> None:
        if not self.link_bytes_per_cycle > 0:  # also rejects NaN
            raise ValueError("link_bytes_per_cycle must be > 0")
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be >= 0")

    def transfer_cycles(self, n_bytes: int) -> int:
        """Cycles to move ``n_bytes`` through the link (0 for no bytes)."""
        if n_bytes <= 0:
            return 0
        return math.ceil(n_bytes / self.link_bytes_per_cycle) + self.latency_cycles


DEFAULT_INTERCONNECT = InterconnectParams()
