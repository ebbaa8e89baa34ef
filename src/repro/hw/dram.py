"""Cycle-approximate HBM2 model (DRAMsim3 stand-in).

The generation-phase workload is streaming reads of KV data, so the model
captures the two first-order effects a full DRAM simulator reports for it:

* **service latency** — a fixed request-to-first-data delay
  (`latency_cycles`, covering command/CAS/interface time), and
* **bandwidth occupancy** — each channel transfers at most
  ``bytes_per_cycle``; requests queue behind one another per channel.

Addresses map to channels by the caller (the accelerator interleaves
tokens across channels).  The model is deterministic and keeps per-channel
counters for utilisation and energy integration.  Row-buffer effects are
modelled as an optional per-request overhead for *random* (non-streaming)
requests, which is how on-demand chunk fetches differ from the baseline's
sequential streaming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass
class DRAMRequest:
    """One read request as issued by the accelerator."""

    channel: int
    n_bytes: int
    issue_cycle: int
    ready_cycle: int = -1  # filled by the model
    streaming: bool = True


class HBM2Model:
    """Per-channel latency + occupancy model."""

    def __init__(
        self,
        n_channels: int = 8,
        bytes_per_cycle: int = 64,
        latency_cycles: int = 24,
        random_access_penalty: float = 0.0,
    ) -> None:
        if n_channels < 1 or bytes_per_cycle < 1 or latency_cycles < 0:
            raise ValueError("invalid DRAM parameters")
        if random_access_penalty < 0:
            raise ValueError("random_access_penalty must be >= 0")
        self.n_channels = n_channels
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        self.random_access_penalty = random_access_penalty
        # channel occupancy is tracked fractionally: a 32 B chunk holds a
        # 64 B/cycle channel for half a cycle, so two chunks fit per cycle
        # (the balance Sec. 5.1.2 relies on)
        self._channel_free = np.zeros(n_channels, dtype=np.float64)
        self.bytes_transferred = np.zeros(n_channels, dtype=np.int64)
        self.busy_time = np.zeros(n_channels, dtype=np.float64)
        self.requests_served = 0

    def reset(self) -> None:
        self._channel_free[:] = 0.0
        self.bytes_transferred[:] = 0
        self.busy_time[:] = 0.0
        self.requests_served = 0

    def submit(self, request: DRAMRequest) -> int:
        """Schedule a request; returns (and records) its data-ready cycle."""
        if not 0 <= request.channel < self.n_channels:
            raise ValueError(f"channel {request.channel} out of range")
        if request.n_bytes < 1:
            raise ValueError("n_bytes must be >= 1")
        ch = request.channel
        start = max(float(request.issue_cycle), float(self._channel_free[ch]))
        transfer = request.n_bytes / self.bytes_per_cycle
        if not request.streaming:
            transfer += self.random_access_penalty
        self._channel_free[ch] = start + transfer
        ready = int(math.ceil(start + transfer + self.latency_cycles))
        request.ready_cycle = ready
        self.bytes_transferred[ch] += request.n_bytes
        self.busy_time[ch] += transfer
        self.requests_served += 1
        return ready

    @property
    def total_bytes(self) -> int:
        return int(self.bytes_transferred.sum())


def streaming_cycles(
    total_bytes: int,
    n_channels: int = 8,
    bytes_per_cycle: int = 64,
    latency_cycles: int = 24,
) -> int:
    """Closed-form time to stream ``total_bytes`` evenly over all channels.

    The baseline accelerator's step time (no dependencies, perfect
    prefetch): one pipeline fill plus bandwidth-bound transfer.
    """
    if total_bytes < 0:
        raise ValueError("total_bytes must be >= 0")
    if total_bytes == 0:
        return 0
    per_channel = -(-total_bytes // n_channels)
    return latency_cycles + -(-per_channel // bytes_per_cycle)


@dataclass(frozen=True)
class DRAMTierParams:
    """Bandwidth/latency point of one memory tier (closed-form model)."""

    n_channels: int = 8
    bytes_per_cycle: int = 64
    latency_cycles: int = 24

    def __post_init__(self) -> None:
        if self.n_channels < 1 or self.bytes_per_cycle < 1:
            raise ValueError("n_channels and bytes_per_cycle must be >= 1")
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be >= 0")

    def cycles(self, n_bytes: int) -> int:
        return streaming_cycles(
            n_bytes, self.n_channels, self.bytes_per_cycle, self.latency_cycles
        )

    def cycles_batch(self, n_bytes: np.ndarray) -> np.ndarray:
        return streaming_cycles_batch(
            n_bytes, self.n_channels, self.bytes_per_cycle, self.latency_cycles
        )


#: Default slow-tier point: a host/CXL-class link — one channel pair at a
#: fraction of HBM bandwidth and an order of magnitude more latency.
DEFAULT_SLOW_TIER = DRAMTierParams(
    n_channels=2, bytes_per_cycle=16, latency_cycles=200
)


class TieredDRAMModel:
    """Two-tier memory-traffic ledger: fast (HBM) + slow (host/CXL) tier.

    The tiered KV store charges every modelled byte movement here —
    fetch-path reads, prefill/append writes, demotion/promotion and swap
    transfers — split by tier and direction.  Cycle costs are the same
    closed-form streaming model as :func:`streaming_cycles`, per tier;
    the tiers stream concurrently, so a step's transfer time is the
    *maximum* of the two tiers' cycle counts.
    """

    def __init__(
        self,
        fast: Optional[DRAMTierParams] = None,
        slow: Optional[DRAMTierParams] = None,
    ) -> None:
        self.fast = fast if fast is not None else DRAMTierParams()
        self.slow = slow if slow is not None else DEFAULT_SLOW_TIER
        self.reset()

    def reset(self) -> None:
        self.fast_read_bytes = 0
        self.fast_write_bytes = 0
        self.slow_read_bytes = 0
        self.slow_write_bytes = 0

    @staticmethod
    def _check(n_bytes: int) -> int:
        n_bytes = int(n_bytes)
        if n_bytes < 0:
            raise ValueError("n_bytes must be >= 0")
        return n_bytes

    def fast_read(self, n_bytes: int) -> None:
        self.fast_read_bytes += self._check(n_bytes)

    def fast_write(self, n_bytes: int) -> None:
        self.fast_write_bytes += self._check(n_bytes)

    def slow_read(self, n_bytes: int) -> None:
        self.slow_read_bytes += self._check(n_bytes)

    def slow_write(self, n_bytes: int) -> None:
        self.slow_write_bytes += self._check(n_bytes)

    @property
    def fast_bytes(self) -> int:
        """Total bytes moved through the fast tier (reads + writes)."""
        return self.fast_read_bytes + self.fast_write_bytes

    @property
    def slow_bytes(self) -> int:
        return self.slow_read_bytes + self.slow_write_bytes

    @property
    def total_bytes(self) -> int:
        return self.fast_bytes + self.slow_bytes

    def snapshot(self) -> dict:
        """JSON-ready ledger dump (the CLI ``--profile`` block reads it)."""
        return {
            "fast_read_bytes": self.fast_read_bytes,
            "fast_write_bytes": self.fast_write_bytes,
            "slow_read_bytes": self.slow_read_bytes,
            "slow_write_bytes": self.slow_write_bytes,
        }


def streaming_cycles_batch(
    n_bytes: np.ndarray,
    n_channels: int = 8,
    bytes_per_cycle: int = 64,
    latency_cycles: int = 24,
) -> np.ndarray:
    """Vectorised :func:`streaming_cycles` over an array of transfer sizes.

    Same integer arithmetic element-for-element — the batched serving
    simulator charges every sequence's private KV stream its own latency
    tail in one call instead of a Python loop.
    """
    n_bytes = np.asarray(n_bytes, dtype=np.int64)
    if np.any(n_bytes < 0):
        raise ValueError("n_bytes must be >= 0")
    per_channel = -(-n_bytes // n_channels)
    return np.where(
        n_bytes > 0,
        latency_cycles + -(-per_channel // bytes_per_cycle),
        0,
    )
