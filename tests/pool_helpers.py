"""One way into :meth:`KVCachePool.register` for the pool-level tests.

Every pooled sequence has frozen scales.  A sequence that ingests a raw
prompt is registered with the ``(H, T, d)`` prompt K/V; the pool then
encodes it through ``append(seq_id, n)``.
"""

import numpy as np

from repro.serving.kv_pool import SequenceScales, freeze_scales


def register(pool, seq_id, prompt=None, *, scales=None, reserve_tokens=0):
    """Register ``seq_id`` on ``pool`` and return its scales.

    ``prompt`` is a raw ``(keys, values)`` pair of ``(H, T, d)`` arrays.
    ``scales`` defaults to those frozen from the prompt (safety factor
    1.25), or to unit scales for a sequence that only takes encoded rows
    (``append_encoded`` / ``append_slots``).
    """
    if scales is None and prompt is None:
        ones = np.ones(pool.n_heads)
        scales = SequenceScales(ones, ones, ones)
    elif scales is None:
        scales = freeze_scales(*prompt, pool.quant, 1.25)
    pool.register(seq_id, scales, prompt, reserve_tokens)
    return scales
