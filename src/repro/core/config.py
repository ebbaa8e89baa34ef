"""Configuration objects for the Token-Picker algorithm.

Two dataclasses drive everything in :mod:`repro.core`:

* :class:`QuantConfig` — the fixed-point format.  The paper sets the
  self-attention operand precision to 12 bits segmented into three 4-bit
  chunks (Sec. 4); both numbers are configurable here so the chunk-width
  ablation is a one-parameter sweep.
* :class:`TokenPickerConfig` — the pruning policy: threshold ``thr``,
  processing order, schedule (depth-first reference vs the breadth-first
  round order the out-of-order hardware realises) and the never-pruned
  recent window.

Neither carries an implementation choice: the fused arena kernel
(:func:`repro.core.pruning.token_picker_attention_ragged`) has one score
path, and the rectangular kernel
(:func:`repro.core.pruning.token_picker_attention_batched`) is its
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

#: Named threshold presets from the paper's evaluated configurations.
#: ToPick      — "minimal performance decrease of at most +0.05 PPL"
#: ToPick-0.3  — "+0.3 PPL on average in Wikitext-2"
#: ToPick-0.5  — the +0.5 PPL budget used for the SpAtten comparison (Fig. 9)
PRESET_PPL_BUDGETS = {
    "topick": 0.05,
    "topick-0.3": 0.3,
    "topick-0.5": 0.5,
}

VALID_ORDERS = ("sink_recency", "recency", "chronological")
VALID_SCHEDULES = ("breadth", "depth")


@dataclass(frozen=True)
class QuantConfig:
    """Fixed-point two's-complement format split into MSB-first bit chunks.

    Attributes:
        total_bits: operand width (paper: 12).
        chunk_bits: width of one chunk (paper: 4).  ``total_bits`` must be a
            positive multiple of ``chunk_bits`` so every chunk is full.
    """

    total_bits: int = 12
    chunk_bits: int = 4

    def __post_init__(self) -> None:
        if self.total_bits <= 1:
            raise ValueError(f"total_bits must be > 1, got {self.total_bits}")
        if self.chunk_bits <= 0:
            raise ValueError(f"chunk_bits must be > 0, got {self.chunk_bits}")
        if self.total_bits % self.chunk_bits != 0:
            raise ValueError(
                f"total_bits ({self.total_bits}) must be a multiple of "
                f"chunk_bits ({self.chunk_bits})"
            )

    @property
    def n_chunks(self) -> int:
        """Number of chunks per element (paper: 3)."""
        return self.total_bits // self.chunk_bits

    @property
    def qmax(self) -> int:
        """Largest representable value, ``2**(N-1) - 1``."""
        return (1 << (self.total_bits - 1)) - 1

    @property
    def qmin(self) -> int:
        """Smallest representable value, ``-2**(N-1)``."""
        return -(1 << (self.total_bits - 1))

    def known_bits(self, n_known_chunks: int) -> int:
        """Bits covered by the first ``n_known_chunks`` MSB-first chunks."""
        self._check_chunk_count(n_known_chunks)
        return n_known_chunks * self.chunk_bits

    def unknown_bits(self, n_known_chunks: int) -> int:
        """Low-order bits still unknown after ``n_known_chunks`` chunks."""
        return self.total_bits - self.known_bits(n_known_chunks)

    def residual_max(self, n_known_chunks: int) -> int:
        """Maximum value the unknown low bits can add: ``2**unknown - 1``.

        All bits below the sign bit carry non-negative weight in two's
        complement (Eq. 4), so the residual is always in
        ``[0, residual_max]``.
        """
        return (1 << self.unknown_bits(n_known_chunks)) - 1

    def _check_chunk_count(self, n: int) -> None:
        if not 0 <= n <= self.n_chunks:
            raise ValueError(
                f"chunk count must be in [0, {self.n_chunks}], got {n}"
            )


@dataclass(frozen=True)
class TokenPickerConfig:
    """Pruning policy for :func:`repro.core.pruning.token_picker_attention`.

    Attributes:
        threshold: probability threshold ``thr``; a token is pruned when its
            certified upper-bound probability ``p''`` falls at or below it.
        quant: fixed-point format for Q and K (and V on the fetch path).
        order: processing-order policy (see :mod:`repro.core.ordering`).
            ``sink_recency`` is the paper's choice — newest token first, the
            first ("sink") token early, then reverse chronological.
        schedule: ``"breadth"`` evaluates chunk rounds across all tokens
            (what the out-of-order hardware converges to under uniform DRAM
            latency, and fully vectorisable); ``"depth"`` finishes each token
            before the next (the sequential reference).
        prompt_guard: number of most-recent tokens that are never pruned.
            The current token's own score always participates; guarding a
            small recent window mirrors the locality prior and costs little.
        include_self_in_denominator: whether a token's own lower bound is
            added to the denominator before its prune check (the hardware
            aggregates each lane's partial-exp in the same cycle, so True).
    """

    threshold: float = 1e-3
    quant: QuantConfig = field(default_factory=QuantConfig)
    order: str = "sink_recency"
    schedule: str = "breadth"
    prompt_guard: int = 1
    include_self_in_denominator: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0, 1), got {self.threshold}")
        if self.order not in VALID_ORDERS:
            raise ValueError(f"order must be one of {VALID_ORDERS}, got {self.order!r}")
        if self.schedule not in VALID_SCHEDULES:
            raise ValueError(
                f"schedule must be one of {VALID_SCHEDULES}, got {self.schedule!r}"
            )
        if self.prompt_guard < 0:
            raise ValueError(f"prompt_guard must be >= 0, got {self.prompt_guard}")

    def with_threshold(self, threshold: float) -> "TokenPickerConfig":
        """Copy of this config with a different threshold."""
        return replace(self, threshold=threshold)

    @property
    def log_threshold(self) -> float:
        """``ln(thr)`` — the constant the RPDU compares against."""
        import math

        return math.log(self.threshold)


def preset_config(name: str, threshold: float, **kwargs) -> Tuple[str, TokenPickerConfig]:
    """Build a named configuration (helper for experiment drivers)."""
    if name not in PRESET_PPL_BUDGETS:
        raise KeyError(f"unknown preset {name!r}; valid: {sorted(PRESET_PPL_BUDGETS)}")
    return name, TokenPickerConfig(threshold=threshold, **kwargs)
