"""Bench: head-sharded tensor parallelism and the kept-token all-gather.

The acceptance measurement for :mod:`repro.cluster.shard`: the same
bursty decode workload served by one engine at tensor-parallel widths
K in {1, 2, 4}, recording

* **aggregate modelled tokens/s** — the busiest step priced by
  :meth:`repro.hw.serving.ServingSimulator.price` (straggler
  shard + all-gather + shared weight stream; K=1 is the unsharded
  anchor),
* **all-gather bytes per decoded token** — the modelled interconnect
  payload of the partial-output combine, with pruning on vs the
  no-pruning baseline shipping every (head, token) pair.

The blocking claim is the paper's DRAM argument transplanted to the
wire: Token-Picker's Eq. 5 bounds decide which tokens are *kept*, and
only kept pairs cross the interconnect, so the all-gather shrinks by the
same kept fraction that shrinks KV traffic — a systems payoff the DAC'24
paper never measured.  Sharded decode is bit-identical to unsharded
(asserted here on completed-request traffic counters; the exhaustive
sweep lives in ``tests/test_shard.py``).

``python benchmarks/test_cluster_throughput.py`` embeds this section in
``BENCH_cluster.json`` (``shard_scaling``, enforced by
``repro.eval.bench_schema``).  ``TOKENPICKER_BENCH_TINY=1`` shrinks the
workload for CI's smoke job.
"""

import json
import os
from pathlib import Path

import numpy as np

from repro.core import TokenPickerConfig
from repro.hw.serving import ServingSimulator, tokens_per_second
from repro.model.config import get_model_config
from repro.serving.engine import GenerationRequest, ServingEngine

_TINY = os.environ.get("TOKENPICKER_BENCH_TINY") == "1"
# 4 heads always: the sweep's widest split (K=4) needs one head per
# worker; tiny mode shrinks the other dimensions instead
N_HEADS = 4
HEAD_DIM = 16 if _TINY else 64
PROMPT_TOKENS, MAX_NEW = (24, 4) if _TINY else (96, 12)
BATCH = 3 if _TINY else 8
SHARD_WIDTHS = (1, 2, 4)
CFG = TokenPickerConfig(threshold=2e-3)
SEED = 0
MODEL = "gpt2-medium"


def _requests(rng: np.random.Generator):
    for rid in range(BATCH * 2):
        prompt = PROMPT_TOKENS + int(rng.integers(0, PROMPT_TOKENS // 4))
        yield GenerationRequest(
            request_id=rid,
            prompt_keys=rng.normal(size=(N_HEADS, prompt, HEAD_DIM)),
            prompt_values=rng.normal(size=(N_HEADS, prompt, HEAD_DIM)),
            max_new_tokens=MAX_NEW,
            seed=rid + 1,
        )


def _drain(shards: int):
    """Run the shared workload at one tensor-parallel width."""
    engine = ServingEngine(
        CFG,
        max_batch_size=BATCH,
        capacity_tokens=BATCH * 2 * (PROMPT_TOKENS * 2 + MAX_NEW + 16),
        seed=SEED,
        shards=shards,
    )
    for request in _requests(np.random.default_rng(SEED)):
        engine.submit(request)
    reports = engine.run_until_drained()
    return engine, reports


def _traffic(engine: ServingEngine) -> dict:
    return {
        done.request_id: (
            done.stats.counter.k_bits,
            done.stats.counter.v_bits,
            done.stats.generated_tokens,
        )
        for done in engine.completed
    }


def measure_shard_scaling() -> dict:
    """The ``shard_scaling`` section of ``BENCH_cluster.json``."""
    model = get_model_config(MODEL)
    sim = ServingSimulator(
        model, context_length=PROMPT_TOKENS + MAX_NEW, config=CFG
    )
    # one layer's N_HEADS heads model the full stack's traffic
    scale = (model.n_heads / N_HEADS) * model.n_layers
    runs = []
    anchor_traffic = None
    for shards in SHARD_WIDTHS:
        engine, reports = _drain(shards)
        traffic = _traffic(engine)
        if anchor_traffic is None:
            anchor_traffic = traffic
        else:
            assert traffic == anchor_traffic, (
                f"shards={shards} decode diverged from the unsharded run"
            )
        busiest = max(reports, key=lambda r: r.batch_size)
        result = sim.price(busiest, engine_heads=N_HEADS)
        tokens = sum(r.tokens_generated for r in reports)
        shipped = engine.allgather_bits_total * scale / 8
        full = engine.allgather_baseline_bits_total * scale / 8
        run = {
            "shards": shards,
            "modelled_tokens_per_sec": round(
                tokens_per_second(result), 1
            ),
            "allgather_bytes_per_token": round(shipped / tokens, 1),
            "baseline_allgather_bytes_per_token": round(full / tokens, 1),
            "keep_fraction": round(engine.counter.keep_fraction, 4),
            "tokens_generated": tokens,
        }
        if shards > 1:
            run["interconnect_savings"] = round(full / shipped, 2)
            run["straggler_attention_cycles"] = result.attention_cycles
            run["allgather_cycles"] = result.allgather_cycles
        runs.append(run)
    return {
        "model": MODEL,
        "n_heads": N_HEADS,
        "head_dim": HEAD_DIM,
        "batch": BATCH,
        "runs": runs,
    }


# ---------------------------------------------------------------- acceptance
def test_sharded_runs_match_unsharded_and_prune_the_wire():
    """Acceptance: every width reproduces the unsharded traffic counters
    bit for bit, and pruning ships strictly fewer all-gather bytes than
    the no-pruning baseline on every multi-shard run."""
    section = measure_shard_scaling()
    by_width = {run["shards"]: run for run in section["runs"]}
    assert set(by_width) == set(SHARD_WIDTHS)
    assert by_width[1]["allgather_bytes_per_token"] == 0
    for shards in SHARD_WIDTHS[1:]:
        run = by_width[shards]
        assert (
            run["allgather_bytes_per_token"]
            < run["baseline_allgather_bytes_per_token"]
        ), f"shards={shards}: pruning did not shrink the all-gather"


def test_section_matches_schema():
    from repro.eval.bench_schema import _validate_shard_scaling

    _validate_shard_scaling(measure_shard_scaling(), "shard_scaling")


def main() -> None:
    print(json.dumps(measure_shard_scaling(), indent=2))


if __name__ == "__main__":
    main()
