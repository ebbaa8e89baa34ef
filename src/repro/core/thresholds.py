"""Threshold calibration against a quality budget (Sec. 5.1.3).

The paper evaluates three configurations defined by how much perplexity
degradation the threshold is allowed to cause on Wikitext-2: ToPick
(+0.05 PPL), ToPick-0.3 (+0.3 PPL) and ToPick-0.5 (+0.5 PPL, for the
SpAtten comparison).  Calibration is a monotone search: a larger ``thr``
prunes more and can only degrade quality, so the largest threshold whose
degradation stays within budget is found by bisection on ``log10(thr)``.

The routine is metric-agnostic: callers pass ``metric(threshold) -> float``
(typically ΔPPL from :mod:`repro.eval.perplexity`, but tests use synthetic
monotone functions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of a threshold search."""

    threshold: float
    metric_value: float
    budget: float
    evaluations: int
    history: tuple  # ((threshold, metric), ...) in evaluation order


def calibrate_threshold(
    metric: Callable[[float], float],
    budget: float,
    low: float = 1e-6,
    high: float = 1e-1,
    iterations: int = 12,
    monotone_slack: float = 0.0,
) -> CalibrationResult:
    """Largest threshold whose metric stays within ``budget``.

    Bisection on ``log10(thr)`` between ``low`` and ``high``.  The metric is
    assumed non-decreasing in the threshold up to noise ``monotone_slack``
    (measured metrics from finite corpora jitter slightly; the search keeps
    the best feasible point seen rather than trusting strict monotonicity).

    Args:
        metric: quality degradation at a threshold (e.g. ΔPPL); must be
            cheap enough to call ``iterations + 2`` times.
        budget: maximum acceptable degradation.
        low/high: threshold search interval (inclusive bracket).
        iterations: bisection steps.
        monotone_slack: tolerated non-monotonicity when picking the result.

    Returns:
        :class:`CalibrationResult` with the best feasible threshold (or
        ``low`` if even that exceeds the budget — callers compare
        ``metric_value`` with ``budget``).
    """
    if not 0 < low < high < 1:
        raise ValueError(f"need 0 < low < high < 1, got low={low} high={high}")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")

    history = []

    def evaluate(thr: float) -> float:
        value = float(metric(thr))
        history.append((thr, value))
        return value

    lo_val = evaluate(low)
    if lo_val > budget + monotone_slack:
        return CalibrationResult(low, lo_val, budget, len(history), tuple(history))
    hi_val = evaluate(high)
    if hi_val <= budget:
        return CalibrationResult(high, hi_val, budget, len(history), tuple(history))

    lo, hi = np.log10(low), np.log10(high)
    best_thr, best_val = low, lo_val
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        thr = float(10.0**mid)
        value = evaluate(thr)
        if value <= budget:
            if thr > best_thr:
                best_thr, best_val = thr, value
            lo = mid
        else:
            hi = mid
    return CalibrationResult(best_thr, best_val, budget, len(history), tuple(history))


def scale_threshold_for_context(
    threshold: float, calibration_context: int, target_context: int
) -> float:
    """Transfer a calibrated threshold to a different context length.

    A probability threshold is only meaningful relative to the uniform
    probability ``1/t``: "prune tokens below thr" at context 64 and at
    context 2048 describe very different selectivities if ``thr`` is held
    fixed.  Expressing the calibrated threshold as a multiple of uniform
    (``alpha = thr * t_cal``) and re-instantiating it at the target
    context (``thr' = alpha / t_target``) keeps the *selectivity* the
    calibration chose.  The paper avoids the issue by calibrating and
    deploying at the same contexts (1024/2048); the reproduction
    calibrates on short-context LM windows and deploys on full-length
    workloads, so the transfer is explicit.
    """
    if calibration_context < 1 or target_context < 1:
        raise ValueError("contexts must be >= 1")
    if not 0 < threshold < 1:
        raise ValueError("threshold must be in (0, 1)")
    scaled = threshold * calibration_context / target_context
    return float(min(max(scaled, 1e-12), 0.999))


def calibrate_presets(
    metric: Callable[[float], float],
    budgets: Optional[Dict[str, float]] = None,
    **kwargs,
) -> Dict[str, CalibrationResult]:
    """Calibrate every named configuration (ToPick / -0.3 / -0.5)."""
    from repro.core.config import PRESET_PPL_BUDGETS

    budgets = dict(PRESET_PPL_BUDGETS if budgets is None else budgets)
    return {
        name: calibrate_threshold(metric, budget, **kwargs)
        for name, budget in sorted(budgets.items(), key=lambda kv: kv[1])
    }
