"""Token processing-order policies (Sec. 3.1, Fig. 4a).

The estimator prunes token ``i`` when its certified upper bound falls below
``thr`` *relative to the denominator accumulated so far*.  Feeding dominant
tokens into the denominator early therefore makes subsequent prune checks
stronger.  Text generation exhibits two strong priors (Fig. 4a):

* **recency** — recently generated tokens carry more probability mass;
* **sink** — the first token is disproportionately heavy.

The paper starts with these tokens and walks the rest in reverse
chronological order.  ``sink_recency`` implements exactly that; the other
policies exist as ablations (DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np


def processing_order(n_tokens: int, policy: str = "sink_recency") -> np.ndarray:
    """Return the order in which token indices are examined.

    Args:
        n_tokens: number of cached tokens visible to the current query
            (positions ``0 .. n_tokens-1``; the newest is ``n_tokens-1``).
        policy: one of

            * ``"sink_recency"`` — newest first, then the sink (token 0),
              then ``n_tokens-2, n_tokens-3, ...`` (paper's order);
            * ``"recency"`` — plain reverse chronological;
            * ``"chronological"`` — oldest first (worst case for the
              denominator, used to demonstrate the order's impact).

    Returns:
        int64 permutation of ``arange(n_tokens)``.
    """
    if n_tokens < 0:
        raise ValueError(f"n_tokens must be >= 0, got {n_tokens}")
    if n_tokens == 0:
        return np.empty(0, dtype=np.int64)
    if policy == "chronological":
        return np.arange(n_tokens, dtype=np.int64)
    if policy == "recency":
        return np.arange(n_tokens - 1, -1, -1, dtype=np.int64)
    if policy == "sink_recency":
        if n_tokens <= 2:
            return np.arange(n_tokens - 1, -1, -1, dtype=np.int64)
        rest = np.arange(n_tokens - 2, 0, -1, dtype=np.int64)
        return np.concatenate(
            [np.array([n_tokens - 1, 0], dtype=np.int64), rest]
        )
    raise ValueError(f"unknown order policy {policy!r}")
