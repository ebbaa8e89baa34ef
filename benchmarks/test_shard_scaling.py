"""Bench: head-sharded tensor parallelism and the kept-token all-gather.

The same decode workload is served by one engine at tensor-parallel
widths K in {1, 2, 4}.  Token-Picker's Eq. 5 bounds decide which tokens
are *kept*, and only kept (head, token) pairs cross the interconnect, so
the modelled all-gather shrinks by the same kept fraction that shrinks
KV traffic.  Sharded decode is bit-identical to unsharded (checked here
on completed-request traffic counters; the exhaustive sweep lives in
``tests/test_shard.py``).
"""

import numpy as np

from repro.core import TokenPickerConfig
from repro.serving.engine import GenerationRequest, ServingEngine

# 4 heads: the widest split (K=4) needs one head per worker
N_HEADS, HEAD_DIM = 4, 16
PROMPT_TOKENS, MAX_NEW = 24, 4
BATCH = 3
SHARD_WIDTHS = (1, 2, 4)
CFG = TokenPickerConfig(threshold=2e-3)
SEED = 0


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


def _drain(shards: int) -> ServingEngine:
    engine = ServingEngine(
        CFG,
        max_batch_size=BATCH,
        capacity_tokens=BATCH * 2 * (PROMPT_TOKENS * 2 + MAX_NEW + 16),
        seed=SEED,
        shards=shards,
    )
    for request in _requests(np.random.default_rng(SEED)):
        engine.submit(request)
    engine.run_until_drained()
    return engine


def _traffic(engine: ServingEngine) -> dict:
    return {
        done.request_id: (
            done.stats.counter.k_bits,
            done.stats.counter.v_bits,
            done.stats.generated_tokens,
        )
        for done in engine.completed
    }


def test_sharded_runs_match_unsharded_and_prune_the_wire():
    """Every width reproduces the unsharded traffic counters bit for
    bit, and pruning ships strictly fewer all-gather bits than the
    no-pruning baseline on every multi-shard run."""
    engines = {shards: _drain(shards) for shards in SHARD_WIDTHS}
    anchor = _traffic(engines[1])
    assert engines[1].allgather_bits_total == 0
    for shards in SHARD_WIDTHS[1:]:
        engine = engines[shards]
        assert _traffic(engine) == anchor, (
            f"shards={shards} decode diverged from the unsharded run"
        )
        assert (
            0 < engine.allgather_bits_total
            < engine.allgather_baseline_bits_total
        ), f"shards={shards}: pruning did not shrink the all-gather"
