"""Bench: SLO-aware overload control and replica-kill fault recovery.

Two robustness checks for the serving stack, at small sizes:

1. **Overload goodput** — a sustained-overload trace (arrivals faster
   than the service rate) served by one engine under two policies:
   plain FIFO (admit everything at the base keep threshold) and the
   SLO-aware degrade-then-shed controller
   (:class:`repro.serving.frontend.OverloadController`), which first
   tightens the Token-Picker keep threshold one rung at a time — the
   paper's own knob: more pruning, less DRAM traffic, cheaper modelled
   steps — and only once fully degraded sheds new admissions.  The SLOs
   (TTFT + mean inter-token latency on the modelled clock) are FIFO's
   own medians.  **Goodput** is requests completed within both SLOs;
   SLO-aware must not lose to FIFO.

2. **Fault recovery** — a 3-replica cluster runs a long-decode trace
   while a seeded :class:`repro.cluster.faults.FaultInjector` kills two
   replicas mid-flight (reviving them later).  Every completed
   request's lifetime pruning traffic ``(k_bits, v_bits,
   generated_tokens)`` must be **bit-identical** to a fault-free run of
   the same trace.
"""

import numpy as np

from repro.cluster import ClusterRouter, FaultInjector, fault_schedule
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.serving import OverloadController, SLOConfig, ServingEngine
from repro.workloads import failover_trace, sustained_overload_trace

N_HEADS, HEAD_DIM = 2, 16
CFG = TokenPickerConfig(threshold=1e-3)
SEED = 7

# overload shape: arrivals outpace a small batch until latency climbs
OVER_REQUESTS = 16
OVER_PROMPT, OVER_NEW = 16, 12
OVER_BATCH = 2
OVER_ARRIVALS = 2
SLO_CFG_KW = dict(
    window_steps=4,
    degrade_factor=6.0,
    max_degrade_level=3,
    max_threshold=0.2,
    recover_ratio=0.7,
    hysteresis_windows=2,
)

# failover shape: long decodes so kills land mid-flight
FAIL_REQUESTS = 8
FAIL_PROMPT, FAIL_NEW = 12, 16
FAIL_REPLICAS = 3
FAIL_BATCH = 2
N_KILLS = 2


def _drive_overload(slo: "SLOConfig | None"):
    """Serve the overload trace on the modelled clock.

    ``slo=None`` is plain FIFO.  Returns per-request modelled TTFT and
    mean inter-token latency (ms) and the controller (``None`` for FIFO).
    """
    engine = ServingEngine(
        CFG,
        max_batch_size=OVER_BATCH,
        capacity_tokens=OVER_BATCH * (OVER_PROMPT + OVER_NEW + 32) * 2,
        seed=SEED,
    )
    sim = ServingSimulator(
        get_model_config("gpt2-medium"),
        context_length=OVER_PROMPT + OVER_NEW,
        config=CFG,
    )
    controller = (
        OverloadController(CFG.threshold, slo) if slo is not None else None
    )
    trace = sustained_overload_trace(
        np.random.default_rng(SEED),
        n_heads=N_HEADS,
        head_dim=HEAD_DIM,
        n_requests=OVER_REQUESTS,
        arrivals_per_step=OVER_ARRIVALS,
        prompt_tokens=OVER_PROMPT,
        max_new_tokens=OVER_NEW,
        prompt_jitter=4,
    )
    t, i = 0.0, 0
    submit_t, first_t, end_t, gen = {}, {}, {}, {}
    while i < len(trace) or engine.n_pending or engine.n_active or (
        engine.n_preempted
    ):
        while i < len(trace) and trace[i][0] <= engine.step_index:
            if controller is None or controller.admit():
                submit_t[engine.submit(trace[i][1])] = t
            i += 1
        report = engine.step()
        seconds = sim.price(report).seconds
        t += seconds
        for view in report.per_sequence.values():
            first_t.setdefault(view.request_id, t)
        for done in report.retired:
            end_t[done.request_id] = t
            gen[done.request_id] = done.stats.generated_tokens
        if controller is not None:
            controller.observe_step(
                engine.step_index,
                seconds,
                tokens=max(1, len(report.per_sequence)),
            )
            engine.set_threshold(controller.threshold)
    ttft_ms = {rid: (first_t[rid] - submit_t[rid]) * 1e3 for rid in end_t}
    itl_ms = {
        rid: (end_t[rid] - first_t[rid]) / max(1, gen[rid] - 1) * 1e3
        for rid in end_t
    }
    return ttft_ms, itl_ms, controller


def _goodput(ttft_ms, itl_ms, slo_ttft_ms, slo_itl_ms) -> int:
    return sum(
        1
        for rid in ttft_ms
        if ttft_ms[rid] <= slo_ttft_ms and itl_ms[rid] <= slo_itl_ms
    )


def _failover_run(with_faults: bool) -> FaultInjector:
    """The failover trace served to drain, faulted or clean."""
    router = ClusterRouter(
        FAIL_REPLICAS,
        CFG,
        policy="least-loaded",
        admission="optimistic",
        max_batch_size=FAIL_BATCH,
        # tight arena: optimistic admission must preempt, so kills can
        # catch swapped-out sequences and exercise swap-resume
        capacity_tokens=(FAIL_BATCH + 1) * (FAIL_PROMPT + FAIL_NEW),
        seed=SEED,
    )
    schedule = (
        fault_schedule(
            SEED,
            FAIL_REPLICAS,
            n_kills=N_KILLS,
            revive_after=6,
            first_kill_step=3,
        )
        if with_faults
        else []
    )
    injector = FaultInjector(router, schedule)
    injector.run_trace(
        failover_trace(
            np.random.default_rng(SEED + 1),
            n_heads=N_HEADS,
            head_dim=HEAD_DIM,
            n_requests=FAIL_REQUESTS,
            arrivals_per_step=1,
            prompt_tokens=FAIL_PROMPT,
            max_new_tokens=FAIL_NEW,
        )
    )
    return injector


def _traffic(outputs) -> dict:
    return {
        key: (
            done.stats.counter.k_bits,
            done.stats.counter.v_bits,
            done.stats.generated_tokens,
        )
        for key, done in outputs.items()
    }


def test_overload_goodput_slo_aware_not_worse_than_fifo():
    """Degrade-then-shed holds goodput at or above FIFO on a
    sustained-overload trace, and actually degrades along the way."""
    fifo_ttft, fifo_itl, _ = _drive_overload(None)
    slo_ttft_ms = float(np.median(list(fifo_ttft.values())))
    slo_itl_ms = float(np.median(list(fifo_itl.values())))
    slo = SLOConfig(p95_inter_token_ms=slo_itl_ms, **SLO_CFG_KW)
    aware_ttft, aware_itl, controller = _drive_overload(slo)
    fifo_good = _goodput(fifo_ttft, fifo_itl, slo_ttft_ms, slo_itl_ms)
    aware_good = _goodput(aware_ttft, aware_itl, slo_ttft_ms, slo_itl_ms)
    assert aware_good >= fifo_good, (aware_good, fifo_good)
    assert controller.timeline, "no control decisions recorded"
    assert max(s.level for s in controller.timeline) >= 1, (
        "the controller never degraded — the trace is not overloading"
    )


def test_fault_recovery_bit_identical():
    """>= 2 replica kills, every request completes, and the recovered
    outputs carry exactly the fault-free run's bits."""
    clean = _failover_run(with_faults=False)
    faulted = _failover_run(with_faults=True)
    stats = faulted.stats
    assert stats.kills >= 2, stats
    assert len(faulted.outputs) == FAIL_REQUESTS, stats
    assert stats.retries >= 1, "the kills caught nothing in flight"
    assert _traffic(clean.outputs) == _traffic(faulted.outputs), (
        "recovered outputs diverged from the fault-free run"
    )
