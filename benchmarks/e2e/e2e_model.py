"""Modelled time: price every step report on ``hw.serving.ServingSimulator``.

Modelled numbers are simulated time on the paper's accelerator at its
0.5 GHz clock, not host time.  They are exact functions of the step
reports, so two runs of one seed agree bit for bit.  Pricing happens
outside the timed repeats (in the model-and-verify repeat, and again in
the traced repeat so its host cost shows as ``hw.price_ms_per_step``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.hw.serving import ServingSimulator, step_seconds
from repro.model.config import get_model_config
from repro.serving.engine import EngineStepReport

from e2e_drive import CONFIG, Stack, percentile
from e2e_inputs import N_HEADS, WorkloadSpec

#: the modelled network: its weights stream once per step; the engine's
#: four heads of one layer are scaled to its heads x layers
MODEL_NAME = "gpt2-medium"


class Pricer:
    """Step observer that keeps the modelled clock and cycle budget."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.sim = ServingSimulator(
            get_model_config(MODEL_NAME),
            context_length=spec.prompt_hi,
            config=CONFIG,
        )
        self.cluster = spec.stack == "cluster"
        self.seconds = 0.0
        self.baseline_seconds = 0.0
        self.tokens = 0
        self.cycles: Dict[str, int] = dict.fromkeys(
            ("total", "weights", "attention", "prefill", "allgather", "slow_tier"), 0
        )
        self._last_token: Dict[int, float] = {}
        self.itl_s: List[float] = []

    def __call__(
        self,
        stack: Stack,
        reports: Sequence[Tuple[Optional[int], EngineStepReport]],
    ) -> None:
        busy = [
            (replica, report)
            for replica, report in reports
            if report.per_sequence or report.prefill_bits
        ]
        if not busy:
            return
        sim = self.sim
        if self.cluster:
            only = [report for _, report in busy]
            ours = sim.step_from_cluster(only, engine_heads=N_HEADS)
            base = sim.step_from_cluster(
                only, variant="baseline", engine_heads=N_HEADS
            )
            parts = ours.per_replica
        else:
            report = busy[0][1]
            ours = sim.step_from_engine(report, engine_heads=N_HEADS)
            base = sim.step_from_engine(
                report, variant="baseline", engine_heads=N_HEADS
            )
            parts = [ours]
        self.seconds += step_seconds(ours)
        self.baseline_seconds += step_seconds(base)
        cycles = self.cycles
        for part in parts:
            cycles["total"] += part.total_cycles
            cycles["weights"] += part.weight_cycles
            cycles["attention"] += part.attention_cycles
            cycles["prefill"] += part.prefill_cycles
            cycles["allgather"] += getattr(part, "allgather_cycles", 0)
        for replica, report in busy:
            if any(v.fast_bits >= 0 for v in report.per_sequence.values()):
                # a second pricing of the same report: the slow tier
                # streams concurrently with the fast one
                tiered = sim.step_from_tiered(report, engine_heads=N_HEADS)
                cycles["slow_tier"] += tiered.slow_attention_cycles
            for view in report.per_sequence.values():
                index = stack.index_of[(replica, view.request_id)]
                previous = self._last_token.get(index)
                if previous is not None:
                    self.itl_s.append(self.seconds - previous)
                self._last_token[index] = self.seconds
                self.tokens += 1

    def end_to_end(self) -> Dict[str, float]:
        return {
            "modelled_tok_s": self.tokens / self.seconds,
            "modelled_itl_ms_p95": 1e3 * percentile(self.itl_s, 95),
            "modelled_speedup": self.baseline_seconds / self.seconds,
        }

    def cycle_fractions(self) -> Dict[str, float]:
        total = self.cycles["total"]
        return {
            name: self.cycles[name] / total
            for name in ("weights", "attention", "prefill", "allgather", "slow_tier")
        }
