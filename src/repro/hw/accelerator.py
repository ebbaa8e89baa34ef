"""Cycle-approximate simulator of the ToPick accelerator (Sec. 4).

Four design points share one interface (``variant=`` of
:meth:`ToPickAccelerator.run_instance`):

* ``baseline`` — the comparison accelerator without the five pruning
  modules: streams every K and V vector at full precision.  Perfectly
  prefetchable, so its time is bandwidth-bound (closed form).
* ``v_only`` — probability estimation **without** on-demand chunked K
  access: all of K is streamed (no stalls), the threshold only prunes the
  ``x V`` fetches.  This is the intermediate design of Fig. 10 whose
  speedup comes purely from V reduction (paper: 1.73x).
* ``topick`` — the full design: on-demand K chunks with out-of-order
  processing across 16 PE lanes, Scoreboard/RPDU/PEC/DAG activity, then V
  fetches for the survivors (paper: 2.28x at +0.05 PPL).
* ``topick_inorder`` — ablation: on-demand chunks but a blocking pipeline
  (every downstream chunk stalls its lane), quantifying what the
  out-of-order engine buys.

Timing comes from the shared :class:`repro.hw.dram.HBM2Model`; activity is
recorded as :class:`repro.hw.energy.EventCounts` for the energy model.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.margins import margin_pairs
from repro.core.ordering import processing_order
from repro.core.pruning import (
    _chunk_score_table,
    _quantize_operands,
    token_picker_scores,
)
from repro.hw.dram import DRAMRequest, HBM2Model, streaming_cycles
from repro.hw.energy import EnergyBreakdown, EnergyParams, EventCounts, integrate_energy
from repro.hw.fixedpoint import ConservativeExpUnit
from repro.hw.params import HardwareParams
from repro.hw.pe_lane import DAGUnit, PELane, ProbabilityGenerator

VARIANTS = ("baseline", "v_only", "topick", "topick_inorder")


@dataclass
class StepResult:
    """Outcome of one generation-step attention instance on the hardware."""

    variant: str
    cycles: int
    counts: EventCounts
    kept: np.ndarray
    chunks_fetched: np.ndarray
    k_bytes: int
    v_bytes: int
    baseline_k_bytes: int
    baseline_v_bytes: int

    @property
    def dram_bytes(self) -> int:
        return self.k_bytes + self.v_bytes

    @property
    def baseline_dram_bytes(self) -> int:
        return self.baseline_k_bytes + self.baseline_v_bytes

    def energy(self, params: EnergyParams = EnergyParams()) -> EnergyBreakdown:
        return integrate_energy(self.counts, params)


@dataclass
class WorkloadResult:
    """Aggregate over many instances (e.g. all sampled heads of a model)."""

    variant: str
    cycles: int = 0
    counts: EventCounts = field(default_factory=EventCounts)
    k_bytes: int = 0
    v_bytes: int = 0
    baseline_k_bytes: int = 0
    baseline_v_bytes: int = 0
    n_instances: int = 0
    n_tokens: int = 0
    n_kept: int = 0

    def add(self, r: StepResult) -> None:
        self.cycles += r.cycles
        self.counts = self.counts.merged(r.counts)
        self.k_bytes += r.k_bytes
        self.v_bytes += r.v_bytes
        self.baseline_k_bytes += r.baseline_k_bytes
        self.baseline_v_bytes += r.baseline_v_bytes
        self.n_instances += 1
        self.n_tokens += int(r.kept.size)
        self.n_kept += int(r.kept.sum())

    @property
    def dram_bytes(self) -> int:
        return self.k_bytes + self.v_bytes

    @property
    def baseline_dram_bytes(self) -> int:
        return self.baseline_k_bytes + self.baseline_v_bytes

    @property
    def access_reduction(self) -> float:
        return self.baseline_dram_bytes / self.dram_bytes if self.dram_bytes else math.inf

    @property
    def v_pruning_ratio(self) -> float:
        return self.baseline_v_bytes / self.v_bytes if self.v_bytes else math.inf

    @property
    def k_reduction(self) -> float:
        return self.baseline_k_bytes / self.k_bytes if self.k_bytes else math.inf

    def energy(self, params: EnergyParams = EnergyParams()) -> EnergyBreakdown:
        return integrate_energy(self.counts, params)


class ToPickAccelerator:
    """Generation-phase attention on the ToPick hardware."""

    def __init__(
        self,
        hw: Optional[HardwareParams] = None,
        config: Optional[TokenPickerConfig] = None,
        use_fixed_point: bool = False,
    ) -> None:
        """``use_fixed_point`` runs the PEC/DAG/Probability-Generator math
        on the conservative 32-bit fixed-point EXP/LN units instead of
        floats (Table 1's EXP units; certificate-preserving by rounding
        direction)."""
        self.hw = hw or HardwareParams()
        self.config = config or TokenPickerConfig()
        self.use_fixed_point = use_fixed_point
        if self.hw.quant != self.config.quant:
            raise ValueError("hardware and algorithm quantization formats differ")

    # ------------------------------------------------------------------ public
    def run_instance(
        self,
        q: np.ndarray,
        keys: np.ndarray,
        variant: str = "topick",
    ) -> StepResult:
        """Simulate one (q, K[, V]) attention instance.

        V vectors are never needed numerically by the timing model — only
        their byte counts — so values are implied by ``keys.shape``.
        """
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        keys = np.asarray(keys, dtype=np.float64)
        if keys.ndim != 2:
            raise ValueError("keys must be (t, d)")
        n_tokens, head_dim = keys.shape
        if n_tokens == 0:
            return StepResult(
                variant, 0, EventCounts(), np.zeros(0, dtype=bool),
                np.zeros(0, dtype=np.int64), 0, 0, 0, 0,
            )
        if variant == "baseline":
            return self._run_baseline(n_tokens, head_dim)
        if variant == "v_only":
            return self._run_v_only(q, keys)
        return self._run_topick(q, keys, in_order=(variant == "topick_inorder"))

    def run_workload(
        self, instances: Sequence, variant: str = "topick"
    ) -> WorkloadResult:
        """Run a list of :class:`repro.workloads.scores.AttentionInstance` items."""
        result = WorkloadResult(variant=variant)
        for inst in instances:
            result.add(self.run_instance(inst.q, inst.keys, variant=variant))
        return result

    # -------------------------------------------------------------- internals
    def _byte_geometry(self, n_tokens: int, head_dim: int):
        chunk_b = self.hw.chunk_bytes(head_dim)
        vector_b = self.hw.vector_bytes(head_dim)
        return chunk_b, vector_b, n_tokens * vector_b, n_tokens * vector_b

    def _compute_cycles(self, n_chunk_ops: int) -> int:
        """Cycles for the lanes to process ``n_chunk_ops`` chunk dot-products."""
        return -(-n_chunk_ops // self.hw.n_lanes)

    def _run_baseline(self, n_tokens: int, head_dim: int) -> StepResult:
        hw = self.hw
        chunk_b, vector_b, base_k, base_v = self._byte_geometry(n_tokens, head_dim)
        n_chunks = hw.quant.n_chunks
        # step 0: stream K; step 1: stream V — both bandwidth/compute matched
        step0 = max(
            streaming_cycles(base_k, hw.n_channels, hw.channel_bytes_per_cycle,
                             hw.dram_latency_cycles),
            self._compute_cycles(n_tokens * n_chunks),
        )
        step1 = max(
            streaming_cycles(base_v, hw.n_channels, hw.channel_bytes_per_cycle,
                             hw.dram_latency_cycles),
            self._compute_cycles(n_tokens * n_chunks),
        )
        counts = EventCounts(
            dram_bits=(base_k + base_v) * 8,
            sram_bytes=2 * (base_k + base_v),
            operand_bytes=n_tokens * n_chunks * vector_b,
            macs=2 * n_tokens * n_chunks * hw.lane_dim,
            exp_evals=2 * n_tokens,
        )
        kept = np.ones(n_tokens, dtype=bool)
        chunks = np.full(n_tokens, n_chunks, dtype=np.int64)
        return StepResult(
            "baseline", step0 + step1, counts, kept, chunks,
            base_k, base_v, base_k, base_v,
        )

    def _run_v_only(self, q: np.ndarray, keys: np.ndarray) -> StepResult:
        """Estimation without on-demand K: stream all chunks, prune V only.

        The prune decisions are the same conservative chunk-round decisions
        the full design makes (the estimation modules are present); what
        differs is that every chunk of K is streamed regardless, so only
        the V traffic shrinks and step 0 never stalls.
        """
        hw = self.hw
        n_tokens, head_dim = keys.shape
        chunk_b, vector_b, base_k, base_v = self._byte_geometry(n_tokens, head_dim)
        n_chunks = hw.quant.n_chunks

        functional = token_picker_scores(q, keys, self.config)
        kept = functional.kept
        n_kept = int(kept.sum())
        v_bytes = n_kept * vector_b

        step0 = max(
            streaming_cycles(base_k, hw.n_channels, hw.channel_bytes_per_cycle,
                             hw.dram_latency_cycles),
            self._compute_cycles(n_tokens * n_chunks),
        )
        # V fetches are on-demand (addresses known as probabilities emerge)
        step1 = max(
            streaming_cycles(v_bytes, hw.n_channels, hw.channel_bytes_per_cycle,
                             hw.dram_latency_cycles),
            self._compute_cycles(n_kept * n_chunks),
        )
        counts = EventCounts(
            dram_bits=(base_k + v_bytes) * 8,
            sram_bytes=2 * (base_k + v_bytes),
            operand_bytes=n_tokens * n_chunks * vector_b,
            macs=n_tokens * n_chunks * hw.lane_dim + n_kept * n_chunks * hw.lane_dim,
            exp_evals=n_tokens * n_chunks + n_kept,
            margin_gens=n_chunks,
            dag_updates=n_tokens * n_chunks,
        )
        chunks = np.full(n_tokens, n_chunks, dtype=np.int64)
        return StepResult(
            "v_only", step0 + step1, counts, kept, chunks,
            base_k, v_bytes, base_k, base_v,
        )

    def _run_topick(
        self, q: np.ndarray, keys: np.ndarray, in_order: bool
    ) -> StepResult:
        """Full cycle simulation of the out-of-order (or blocking) design.

        The datapath is built from the Fig. 7 modules
        (:mod:`repro.hw.pe_lane`): per-lane Scoreboard / RPDU / PEC plus
        the shared DAG and the step-1 Probability Generator, optionally on
        the conservative fixed-point EXP/LN units (``use_fixed_point``).
        """
        import heapq

        hw = self.hw
        cfg = self.config
        n_tokens, head_dim = keys.shape
        chunk_b, vector_b, base_k, base_v = self._byte_geometry(n_tokens, head_dim)
        n_chunks = hw.quant.n_chunks

        q_codes, k_codes, score_scale = _quantize_operands(q, keys, hw.quant, None, None)
        ps = _chunk_score_table(q_codes, k_codes, hw.quant)
        margins = margin_pairs(q_codes, hw.quant)
        guard_start = max(0, n_tokens - cfg.prompt_guard)

        exp_unit = ConservativeExpUnit() if self.use_fixed_point else None
        dag = DAGUnit(exp_unit)
        prob_gen = ProbabilityGenerator(exp_unit)
        lanes = [
            PELane(
                lane_id=i,
                log_threshold=cfg.log_threshold,
                n_chunks=n_chunks,
                scoreboard_entries=hw.scoreboard_entries,
                exp_unit=exp_unit,
            )
            for i in range(hw.n_lanes)
        ]
        dram = HBM2Model(
            n_channels=hw.n_channels,
            bytes_per_cycle=hw.channel_bytes_per_cycle,
            latency_cycles=hw.dram_latency_cycles,
        )

        order = processing_order(n_tokens, cfg.order)
        n_lanes = hw.n_lanes
        lane_tokens: List[deque] = [deque() for _ in range(n_lanes)]
        for rank, token in enumerate(order):
            lane_tokens[rank % n_lanes].append(int(token))

        kept = np.zeros(n_tokens, dtype=bool)
        chunks_fetched = np.zeros(n_tokens, dtype=np.int64)
        finalized = 0

        # per-lane scheduler state
        ready: List[deque] = [deque() for _ in range(n_lanes)]
        downstream: List[deque] = [deque() for _ in range(n_lanes)]
        open_tokens = [0] * n_lanes
        blocked = [False] * n_lanes  # in-order: lane waits for a chunk
        in_flight: List[tuple] = []  # (ready_cycle, lane, token, chunk) heap

        counts = EventCounts(margin_gens=n_chunks)
        cycle = 0
        max_cycles = 200_000 + 60 * n_tokens
        while finalized < n_tokens:
            while in_flight and in_flight[0][0] <= cycle:
                _, lane, token, chunk = heapq.heappop(in_flight)
                ready[lane].append((token, chunk))

            for lane in range(n_lanes):
                # process one ready chunk per lane per cycle
                if ready[lane]:
                    token, chunk = ready[lane].popleft()
                    blocked[lane] = False
                    b = chunk + 1
                    chunks_fetched[token] = b
                    partial = float(ps[token, b - 1]) * score_scale
                    s_min = float(ps[token, b - 1] + margins.mins[b]) * score_scale
                    s_max = float(ps[token, b - 1] + margins.maxs[b]) * score_scale
                    counts.operand_bytes += vector_b
                    decision = lanes[lane].process_chunk(
                        token=token,
                        chunks_known=b,
                        partial_score=partial,
                        s_min=s_min,
                        s_max=s_max,
                        dag=dag,
                        lane_dim=hw.lane_dim,
                        guarded=token >= guard_start,
                    )
                    if decision.action == "pruned":
                        finalized += 1
                        open_tokens[lane] -= 1
                    elif decision.action == "kept":
                        kept[token] = True
                        finalized += 1
                        open_tokens[lane] -= 1
                    else:
                        downstream[lane].append((token, chunk + 1))

                # issue one request per lane per cycle
                if in_order and (blocked[lane] or ready[lane]):
                    continue
                req = None
                if downstream[lane]:
                    token, chunk = downstream[lane].popleft()
                    req = (token, chunk, False)
                elif lane_tokens[lane] and open_tokens[lane] < hw.scoreboard_entries:
                    token = lane_tokens[lane].popleft()
                    open_tokens[lane] += 1
                    req = (token, 0, True)
                if req is not None:
                    token, chunk, streaming = req
                    r = DRAMRequest(
                        channel=token % hw.n_channels,
                        n_bytes=chunk_b,
                        issue_cycle=cycle,
                        streaming=streaming,
                    )
                    dram.submit(r)
                    heapq.heappush(in_flight, (r.ready_cycle, lane, token, chunk))
                    if in_order:
                        blocked[lane] = True

            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError("accelerator simulation failed to converge")

        step0_cycles = cycle
        # Step-1 V filter: the Probability Generator evaluates
        # p_i = exp(s_i - ln(D_final)) before requesting each v_i; tokens
        # whose probability against the *final* denominator is at or below
        # the threshold never issue their V fetch.  (Step-0 kept them only
        # because their check ran against a partially-built denominator.)
        final_log_den = dag.ln_denominator
        if np.isfinite(final_log_den) and kept.any():
            exact = ps[:, -1].astype(np.float64) * score_scale
            for token in np.flatnonzero(kept):
                if token >= guard_start:
                    continue
                p = prob_gen.probability(float(exact[token]), final_log_den)
                if p <= cfg.threshold:
                    kept[token] = False
        n_kept = int(kept.sum())
        v_bytes = n_kept * vector_b
        # step 1: V fetches for survivors, pipelined across channels
        step1 = max(
            streaming_cycles(v_bytes, hw.n_channels, hw.channel_bytes_per_cycle,
                             hw.dram_latency_cycles),
            self._compute_cycles(n_kept * n_chunks),
        )
        k_bytes = int(chunks_fetched.sum()) * chunk_b
        counts.dram_bits += (k_bytes + v_bytes) * 8
        counts.sram_bytes += 2 * (k_bytes + v_bytes)
        counts.macs += sum(lane.macs for lane in lanes) - counts.macs
        counts.macs = sum(lane.macs for lane in lanes) + n_kept * n_chunks * hw.lane_dim
        counts.exp_evals = (
            sum(lane.pec.evaluations for lane in lanes) + prob_gen.evaluations + n_kept
        )
        counts.dag_updates = dag.updates
        counts.scoreboard_accesses = sum(
            lane.scoreboard.reads + lane.scoreboard.writes for lane in lanes
        )

        variant = "topick_inorder" if in_order else "topick"
        return StepResult(
            variant, step0_cycles + step1, counts, kept, chunks_fetched,
            k_bytes, v_bytes, base_k, base_v,
        )
