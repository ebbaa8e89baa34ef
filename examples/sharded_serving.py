"""Sharded model-parallel serving: head-sliced KV arenas + priced all-gather.

Demonstrates the `repro.cluster.shard` subsystem end to end:

1. the same bursty decode workload is served by one engine at
   tensor-parallel widths K in {1, 2, 4}: `partition_heads` slices the
   attention heads contiguously across K modelled workers, each owning a
   head-slice `KVCachePool` arena and running the ragged lazy kernel on
   its slice only;
2. the per-head kept-token partial outputs are combined by a modelled
   **all-gather** whose payload is proportional to *kept* (head, token)
   pairs — Token-Picker's Eq. 5 pruning shrinks the interconnect
   traffic by the same kept fraction that shrinks KV DRAM traffic, a
   systems payoff the DAC'24 paper never measured;
3. sharded decode is **bit-identical** to unsharded (per-request
   traffic counters compared across every width, including K=3 on 4
   heads — an uneven split);
4. the hardware model prices a sharded step as
   `weights + straggler-shard attention + all-gather + prefill share`
   (:meth:`repro.hw.serving.ServingSimulator.price`).

Run:  python examples/sharded_serving.py
"""

import numpy as np

from repro.cluster.shard import partition_heads
from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator, tokens_per_second
from repro.model.config import get_model_config
from repro.serving.engine import GenerationRequest, ServingEngine

N_HEADS, HEAD_DIM = 4, 64
PROMPT, MAX_NEW, BATCH = 96, 12, 6
SHARD_WIDTHS = (1, 2, 3, 4)  # 3 exercises the uneven 2/1/1 head split


def _requests(rng: np.random.Generator):
    for rid in range(BATCH * 2):
        prompt = PROMPT + int(rng.integers(0, PROMPT // 4))
        yield GenerationRequest(
            request_id=rid,
            prompt_keys=rng.normal(size=(N_HEADS, prompt, HEAD_DIM)),
            prompt_values=rng.normal(size=(N_HEADS, prompt, HEAD_DIM)),
            max_new_tokens=MAX_NEW,
            seed=rid + 1,
        )


def _drain(shards: int):
    engine = ServingEngine(
        TokenPickerConfig(threshold=2e-3),
        max_batch_size=BATCH,
        capacity_tokens=BATCH * 2 * (PROMPT * 2 + MAX_NEW + 16),
        seed=0,
        shards=shards,
    )
    for request in _requests(np.random.default_rng(0)):
        engine.submit(request)
    reports = engine.run_until_drained()
    return engine, reports


def _traffic(engine: ServingEngine) -> dict:
    return {
        done.request_id: (done.stats.counter.k_bits, done.stats.counter.v_bits)
        for done in engine.completed
    }


def main() -> None:
    config = TokenPickerConfig(threshold=2e-3)
    model = get_model_config("gpt2-medium")
    sim = ServingSimulator(
        model, context_length=PROMPT + MAX_NEW, config=config
    )
    # one layer's 4 heads stand in for the full stack's traffic
    scale = (model.n_heads / N_HEADS) * model.n_layers

    print("=== head partitions ===")
    for shards in SHARD_WIDTHS:
        ranges = partition_heads(N_HEADS, shards)
        pretty = ", ".join(f"[{lo},{hi})" for lo, hi in ranges)
        print(f"  K={shards}: heads -> {pretty}")

    print("\n=== same workload at every tensor-parallel width ===")
    anchor = None
    for shards in SHARD_WIDTHS:
        engine, reports = _drain(shards)
        traffic = _traffic(engine)
        if anchor is None:
            anchor = traffic
            tag = "anchor"
        else:
            tag = (
                "bit-identical" if traffic == anchor else "DIVERGED"
            )
        busiest = max(reports, key=lambda r: r.batch_size)
        result = sim.price(busiest, engine_heads=N_HEADS)
        tokens = sum(r.tokens_generated for r in reports)
        line = (
            f"  K={shards}: {tokens} tokens [{tag}], "
            f"modelled {tokens_per_second(result):,.0f} tok/s"
        )
        if shards > 1:
            shipped = engine.allgather_bits_total * scale / 8
            full = engine.allgather_baseline_bits_total * scale / 8
            line += (
                f", all-gather {shipped / tokens:,.0f} B/token "
                f"(vs {full / tokens:,.0f} unpruned, "
                f"{full / shipped:.0f}x less wire), "
                f"straggler {result.attention_cycles:,} + "
                f"all-gather {result.allgather_cycles:,} cycles"
            )
        print(line)

    print(
        "\nkept fraction "
        f"{engine.counter.keep_fraction:.4f}: only kept (head, token) "
        "pairs cross the modelled interconnect, so Eq. 5's certified "
        "pruning shrinks the all-gather by the same factor as KV DRAM "
        "traffic."
    )
    print(
        "cluster composition: tokenpicker serve-cluster --replicas 2 "
        "--shards 2 --profile"
    )


if __name__ == "__main__":
    main()
