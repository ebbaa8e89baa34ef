"""Tiered KV memory: hot/cold token tiers + prefix-sharing radix cache.

Token-Picker's estimator tells the serving stack, per token and per step,
how much attention probability mass a KV row is actually worth.  This
package turns that signal into a **memory hierarchy**:

* :mod:`~repro.kvstore.tiers` — :class:`TieredKVStore`: a two-tier token
  map over the packed arena.  Low-mass tokens demote to a modelled cold
  tier, keeping only their MSB-chunk sketch reachable; a demoted token
  that outlives its sketch is promoted on demand, and generated outputs
  stay bit-identical to the untiered engine.  All movement is a charge
  on a :class:`~repro.hw.dram.TieredDRAMModel` ledger.
* :mod:`~repro.kvstore.policy` — demotion policies: certified
  retained-probability-mass (default), LRU and recency baselines.
* :mod:`~repro.kvstore.radix` — :class:`RadixKVCache`: a prefix-sharing
  radix tree mapping identical prompt prefixes across requests onto one
  refcounted cold-tier extent, with copy-on-divergence splits.
"""

_LAZY = {
    "LRUDemotionPolicy": "repro.kvstore.policy",
    "MassDemotionPolicy": "repro.kvstore.policy",
    "RadixKVCache": "repro.kvstore.radix",
    "RecencyDemotionPolicy": "repro.kvstore.policy",
    "TierConfig": "repro.kvstore.tiers",
    "TieredKVStore": "repro.kvstore.tiers",
    "make_demotion_policy": "repro.kvstore.policy",
}
__all__ = list(_LAZY)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)
