"""Async streaming frontend: deadlines, overload control, fault injection.

Demonstrates the `repro.serving.frontend` + `repro.cluster.faults` layers:

1. an :class:`AsyncStreamingFrontend` puts a one-replica
   :class:`ClusterRouter` (bit for bit a bare serving engine) behind an
   asyncio API — requests are admitted continuously and every generated
   token is pushed to its caller as a :class:`TokenEvent` the step it is
   produced;
2. a request is **cancelled** mid-stream and another carries a wall-clock
   **deadline**; both release their KV blocks the moment they terminate;
3. a sustained-overload burst trips the SLO-aware controller: modelled
   inter-token p95 breaches degrade the certified keep threshold in
   rungs (cheaper steps, bounded-error pruning) before any request is
   shed, then sheds with a retry-after hint, then recovers with
   hysteresis once the backlog clears;
4. a deterministic chaos schedule kills and revives cluster replicas
   mid-flight; harvested requests are resubmitted with capped
   exponential backoff and the run completes **bit-identically** to a
   fault-free rerun.

Run:  python examples/streaming_frontend.py
"""

import asyncio

import numpy as np

from repro.cluster import ClusterRouter, FaultInjector, fault_schedule
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator
from repro.model.config import get_model_config
from repro.serving import (
    AsyncStreamingFrontend,
    RequestState,
    SLOConfig,
    ShedError,
)
from repro.workloads import failover_trace, sustained_overload_trace

N_HEADS, HEAD_DIM = 4, 64
CONFIG = TokenPickerConfig(threshold=2e-3)


def _router(**kw) -> ClusterRouter:
    kw.setdefault("max_batch_size", 4)
    kw.setdefault("capacity_tokens", 4096)
    kw.setdefault("seed", 0)
    return ClusterRouter(1, CONFIG, admission="conservative", **kw)


async def streaming_demo() -> None:
    print("=== per-token streaming, cancellation, deadlines ===")
    rng = np.random.default_rng(0)
    trace = sustained_overload_trace(
        rng, n_heads=N_HEADS, head_dim=HEAD_DIM,
        n_requests=6, prompt_tokens=32, max_new_tokens=12,
    )
    async with AsyncStreamingFrontend(_router()) as frontend:
        streams = [await frontend.submit(req) for _, req in trace[:4]]
        # one request with a (generous) deadline, one doomed to cancel
        deadline = await frontend.submit(trace[4][1], deadline_ms=60_000)
        victim = await frontend.submit(trace[5][1])
        victim.cancel()

        async for event in streams[0]:
            if event.ordinal < 3:
                print(
                    f"  stream 0 token {event.ordinal} at engine step "
                    f"{event.step_index} (context {event.context_length}, "
                    f"kept {event.kept_tokens})"
                )
        results = [await s.drain() for s in streams[1:]]
        results += [await deadline.drain(), await victim.drain()]
    states = [r.state.value for r in [streams[0].result] + results]
    print(f"  terminal states: {states}")
    assert victim.result.state == RequestState.CANCELLED


async def overload_demo() -> None:
    print("\n=== SLO-aware overload control ===")
    rng = np.random.default_rng(1)
    simulator = ServingSimulator(
        get_model_config("gpt2-medium"), context_length=96, config=CONFIG
    )
    slo = SLOConfig(p95_inter_token_ms=1.5, window_steps=4)
    # the router owns the hardware model the controller prices steps with
    frontend = AsyncStreamingFrontend(
        _router(max_batch_size=2, cycle_sim=simulator), slo=slo
    )
    trace = sustained_overload_trace(
        rng, n_heads=N_HEADS, head_dim=HEAD_DIM,
        n_requests=16, arrivals_per_step=2,
        prompt_tokens=48, max_new_tokens=16,
    )
    shed = 0
    async with frontend:
        streams = []
        for _, request in trace:
            try:
                streams.append(await frontend.submit(request))
            except ShedError as exc:
                shed += 1
                print(f"  shed (retry after {exc.retry_after_steps} steps)")
            # yield so the engine loop interleaves with admission
            await asyncio.sleep(0.002)
        for stream in streams:
            await stream.drain()
    controller = frontend.controller
    for sample in controller.timeline:
        print(
            f"  window @ step {sample.step:3d}: p95 {sample.p95_ms:6.2f} ms"
            f"  degrade level {sample.level}"
            f"{'  SHEDDING' if sample.shedding else ''}"
        )
    peak = min(
        CONFIG.threshold
        * slo.degrade_factor
        ** max(s.level for s in controller.timeline),
        slo.max_threshold,
    )
    print(
        f"  {len(streams)} served, {shed} shed; peak threshold "
        f"{peak:g} (base {CONFIG.threshold:g})"
    )


def chaos_demo() -> None:
    print("\n=== deterministic fault injection on a 3-replica cluster ===")

    def run(with_faults: bool) -> FaultInjector:
        router = ClusterRouter(
            3, CONFIG, max_batch_size=2, capacity_tokens=1024, seed=0
        )
        schedule = fault_schedule(0, 3, n_kills=2) if with_faults else []
        injector = FaultInjector(router, schedule)
        injector.run_trace(
            failover_trace(
                np.random.default_rng(2), n_heads=N_HEADS,
                head_dim=HEAD_DIM, n_requests=10,
            )
        )
        return injector

    clean, faulted = run(False), run(True)

    def traffic(inj: FaultInjector) -> dict:
        return {
            key: (done.stats.counter.k_bits, done.stats.counter.v_bits)
            for key, done in inj.outputs.items()
        }

    s = faulted.stats
    print(
        f"  {s.kills} kills, {s.revives} revives; {s.retries} retries "
        f"({s.swap_resumes} swap-resumes, {s.re_prefills} re-prefills, "
        f"{s.requeues} requeues)"
    )
    identical = traffic(clean) == traffic(faulted)
    print(
        f"  {len(faulted.outputs)}/10 completed, bit-identical to the "
        f"fault-free run: {identical}"
    )
    assert identical


def main() -> None:
    asyncio.run(streaming_demo())
    asyncio.run(overload_demo())
    chaos_demo()


if __name__ == "__main__":
    main()
