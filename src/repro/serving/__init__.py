"""Continuous-batching serving layer over the Token-Picker kernel.

The paper's argument (Fig. 2 -> Fig. 10) is that certified KV pruning pays
off *in batched serving*, where the shared weight traffic is amortised and
per-sequence KV traffic dominates the decode step.  This package is that
serving context:

* :class:`~repro.serving.engine.ServingEngine` — owns N concurrent
  sequences and runs one fused ragged-batch decode step across all of
  them (continuous admission/retirement, bit-identical pruning decisions
  to stepping sequences alone).
* :class:`~repro.serving.kv_pool.KVCachePool` — block-pooled (paged) KV
  storage with per-sequence logical views, frozen per-sequence
  quantization scales and eviction accounting.
* :class:`~repro.serving.scheduler.Scheduler` — FIFO continuous-batching
  admission (with an optional small-request head-of-line bypass and a
  per-step prefill token budget); the fused kernel reads sequences in
  place from the arena, so there is no packing order to choose.
  Chunked prefill interleaves prompt ingestion with decode
  (decode-priority) so long prompts cannot stall co-resident decodes;
  outputs stay bit-identical to monolithic prefill.
* :mod:`~repro.serving.request` — request/response dataclasses with
  per-request traffic and latency stats.
"""

_LAZY = {
    "AsyncStreamingFrontend": "repro.serving.frontend",
    "GenerationRequest": "repro.serving.request",
    "OverloadController": "repro.serving.frontend",
    "SLOConfig": "repro.serving.frontend",
    "ShedError": "repro.serving.frontend",
    "RequestState": "repro.serving.request",
    "Scheduler": "repro.serving.scheduler",
    "ServingEngine": "repro.serving.engine",
    "VictimCandidate": "repro.serving.engine",
    "replayable_step_source": "repro.serving.request",
    "synthetic_request": "repro.serving.request",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
