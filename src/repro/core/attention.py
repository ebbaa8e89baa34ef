"""Reference attention and approximation-error metrics.

Everything in :mod:`repro.core.pruning` is compared against the plain
floating-point attention defined here (Eq. 2-3 of the paper).  The error
metrics quantify what pruning at threshold ``thr`` can cost:

* ``lost_probability_mass`` — total true probability of pruned tokens; by
  the certified bound each pruned token has ``p_i <= thr``, so the mass is
  at most ``thr * n_pruned``.
* ``output_l2`` / ``output_linf`` — distance between the pruned attention
  output and the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.numerics import softmax


def exact_attention_probs(q: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Exact scaled-dot-product attention probabilities (float reference)."""
    q = np.asarray(q, dtype=np.float64)
    keys = np.asarray(keys, dtype=np.float64)
    if keys.shape[0] == 0:
        return np.zeros(0)
    scores = keys @ q / np.sqrt(q.shape[-1])
    return softmax(scores)


def exact_attention(
    q: np.ndarray, keys: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Exact attention output ``o_t = sum_i p_i v_i``."""
    probs = exact_attention_probs(q, keys)
    if probs.size == 0:
        return np.zeros(np.asarray(q).shape[-1])
    return probs @ np.asarray(values, dtype=np.float64)


@dataclass(frozen=True)
class ApproximationError:
    """Error of a pruned attention instance versus the exact reference."""

    lost_probability_mass: float
    max_pruned_probability: float
    output_l2: float
    output_linf: float
    total_variation: float


def pruning_error(
    q: np.ndarray,
    keys: np.ndarray,
    values: np.ndarray,
    kept: np.ndarray,
    pruned_output: np.ndarray,
) -> ApproximationError:
    """Compute all error metrics for one pruned instance."""
    true_probs = exact_attention_probs(q, keys)
    exact_out = (
        true_probs @ np.asarray(values, dtype=np.float64)
        if true_probs.size
        else np.zeros_like(pruned_output)
    )
    pruned_mask = ~np.asarray(kept, dtype=bool)
    lost = float(true_probs[pruned_mask].sum()) if true_probs.size else 0.0
    max_pruned = (
        float(true_probs[pruned_mask].max()) if pruned_mask.any() else 0.0
    )
    diff = np.asarray(pruned_output, dtype=np.float64) - exact_out
    # Total variation between the exact distribution and the pruned one
    # (renormalised over the kept support, zero elsewhere).
    tv = 0.0
    if true_probs.size:
        pruned_dist = np.zeros_like(true_probs)
        if kept.any():
            kept_mass = true_probs[kept]
            pruned_dist[np.asarray(kept, dtype=bool)] = kept_mass / kept_mass.sum()
        tv = 0.5 * float(np.abs(true_probs - pruned_dist).sum())
    return ApproximationError(
        lost_probability_mass=lost,
        max_pruned_probability=max_pruned,
        output_l2=float(np.linalg.norm(diff)),
        output_linf=float(np.max(np.abs(diff))) if diff.size else 0.0,
        total_variation=tv,
    )
