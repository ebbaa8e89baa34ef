"""Seeded arrival traces for the serving stack: long-context, failover,
shared-prefix and sustained-overload request streams of synthetic
:class:`~repro.serving.request.GenerationRequest`\\ s.
"""

from __future__ import annotations

from typing import List

import numpy as np


def long_context_trace(
    rng: np.random.Generator,
    n_requests: int,
    *,
    n_heads: int,
    head_dim: int,
    prompt_tokens: int,
    max_new_tokens: int,
    filler_fraction: float = 0.75,
    filler_scale: float = 0.25,
    burst_size: int = 0,
    gap_steps: int = 0,
) -> List[tuple]:
    """Long-prompt requests with a realistic low-information token bulk.

    Real prompts concentrate attention on a minority of tokens (the
    paper's Fig. 3 dominance analysis); an i.i.d. Gaussian prompt does
    not — every position is statistically exchangeable, so no retention
    policy can find a stable cold set in it.  Here ``filler_fraction`` of
    each prompt's keys are scaled down by ``filler_scale``: their scores
    sit persistently far below the pruning threshold, which is the
    workload class where Token-Picker's certified bounds settle within
    the estimator sketch and probability-guided demotion pays off.
    Returns ``(arrival_step, GenerationRequest)`` pairs like
    :func:`shared_prefix_trace`.
    """
    from repro.serving.request import GenerationRequest

    if n_requests < 1 or prompt_tokens < 1 or max_new_tokens < 1:
        raise ValueError(
            "n_requests, prompt_tokens and max_new_tokens must be >= 1"
        )
    if not 0.0 <= filler_fraction <= 1.0 or filler_scale < 0:
        raise ValueError(
            "filler_fraction must be in [0, 1] and filler_scale >= 0"
        )
    trace: List[tuple] = []
    for i in range(n_requests):
        keys = rng.normal(size=(n_heads, prompt_tokens, head_dim))
        values = rng.normal(size=(n_heads, prompt_tokens, head_dim))
        filler = rng.random(prompt_tokens) < filler_fraction
        keys[:, filler, :] *= filler_scale
        request = GenerationRequest(
            prompt_keys=keys,
            prompt_values=values,
            max_new_tokens=max_new_tokens,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        arrival = 0 if burst_size < 1 else (i // burst_size) * gap_steps
        trace.append((arrival, request))
    return trace


def shared_prefix_trace(
    rng: np.random.Generator,
    n_requests: int,
    *,
    n_heads: int,
    head_dim: int,
    prefix_tokens: int,
    suffix_tokens: int,
    max_new_tokens: int,
    n_groups: int = 1,
    burst_size: int = 0,
    gap_steps: int = 0,
    filler_fraction: float = 0.0,
    filler_scale: float = 0.25,
) -> List[tuple]:
    """Arrival trace of requests whose prompts share byte-identical prefixes.

    The multi-tenant workload class the prefix-sharing radix cache
    (:mod:`repro.kvstore.radix`) dedupes: ``n_groups`` distinct "system
    prompts" of ``prefix_tokens`` are drawn once each, and every request
    prepends its group's prefix to a private ``suffix_tokens``-token
    continuation — so requests in a group agree on the first
    ``prefix_tokens`` (K, V) rows *bit for bit* and diverge after.
    Returns ``(arrival_step, GenerationRequest)`` pairs (``burst_size``
    requests per burst, ``gap_steps`` apart; 0 means all arrive at once),
    ready for :meth:`repro.cluster.router.ClusterRouter.run_trace` or a
    manual submit loop.  ``filler_fraction``/``filler_scale`` optionally
    damp that share of each *prefix*'s keys the way
    :func:`long_context_trace` does — shared system prompts are exactly
    where the low-information bulk lives.
    """
    from repro.serving.request import GenerationRequest

    if n_requests < 1 or n_groups < 1:
        raise ValueError("n_requests and n_groups must be >= 1")
    if prefix_tokens < 1 or suffix_tokens < 0 or max_new_tokens < 1:
        raise ValueError(
            "prefix_tokens >= 1, suffix_tokens >= 0, max_new_tokens >= 1 "
            "required"
        )
    if not 0.0 <= filler_fraction <= 1.0 or filler_scale < 0:
        raise ValueError(
            "filler_fraction must be in [0, 1] and filler_scale >= 0"
        )
    prefixes = []
    for _ in range(n_groups):
        pk = rng.normal(size=(n_heads, prefix_tokens, head_dim))
        pv = rng.normal(size=(n_heads, prefix_tokens, head_dim))
        if filler_fraction > 0.0:
            filler = rng.random(prefix_tokens) < filler_fraction
            pk[:, filler, :] *= filler_scale
        prefixes.append((pk, pv))
    trace: List[tuple] = []
    for i in range(n_requests):
        pk, pv = prefixes[i % n_groups]
        sk = rng.normal(size=(n_heads, suffix_tokens, head_dim))
        sv = rng.normal(size=(n_heads, suffix_tokens, head_dim))
        request = GenerationRequest(
            prompt_keys=np.concatenate([pk, sk], axis=1),
            prompt_values=np.concatenate([pv, sv], axis=1),
            max_new_tokens=max_new_tokens,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        arrival = 0 if burst_size < 1 else (i // burst_size) * gap_steps
        trace.append((arrival, request))
    return trace


def sustained_overload_trace(
    rng: np.random.Generator,
    *,
    n_heads: int,
    head_dim: int,
    n_requests: int = 24,
    arrivals_per_step: int = 2,
    prompt_tokens: int = 32,
    max_new_tokens: int = 24,
    prompt_jitter: int = 8,
) -> List[tuple]:
    """Steady arrivals faster than the service rate: the overload workload.

    ``arrivals_per_step`` fresh requests land every step without pause,
    so a bounded batch falls behind and per-token latency climbs until
    something gives.  This is the trace the SLO-aware overload
    controller (:mod:`repro.serving.frontend`) is measured on: degrading
    the keep threshold buys cheaper steps before any admission is shed,
    so goodput under this trace separates degrade-then-shed from plain
    FIFO.  Returns ``(arrival_step, GenerationRequest)`` pairs like the
    other traces; every request carries an explicit ``seed``.
    """
    from repro.serving.request import GenerationRequest

    if n_requests < 1 or arrivals_per_step < 1:
        raise ValueError("n_requests and arrivals_per_step must be >= 1")
    if prompt_tokens < 1 or max_new_tokens < 1 or prompt_jitter < 0:
        raise ValueError(
            "prompt_tokens/max_new_tokens >= 1 and prompt_jitter >= 0"
        )
    trace: List[tuple] = []
    for i in range(n_requests):
        prompt = prompt_tokens + int(rng.integers(0, prompt_jitter + 1))
        request = GenerationRequest(
            prompt_keys=rng.normal(size=(n_heads, prompt, head_dim)),
            prompt_values=rng.normal(size=(n_heads, prompt, head_dim)),
            max_new_tokens=max_new_tokens,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        trace.append((i // arrivals_per_step, request))
    return trace


def failover_trace(
    rng: np.random.Generator,
    *,
    n_heads: int,
    head_dim: int,
    n_requests: int = 12,
    arrivals_per_step: int = 1,
    prompt_tokens: int = 24,
    max_new_tokens: int = 32,
    prompt_jitter: int = 8,
    new_token_jitter: int = 8,
) -> List[tuple]:
    """Long-decode arrivals that replica kills catch mid-flight.

    Decodes are deliberately long relative to the arrival cadence so a
    :class:`~repro.cluster.faults.FaultInjector` kill lands while many
    sequences are arena-resident or swapped out — exercising both
    recovery paths (byte-exact swap-resume on a survivor, re-prefill
    from the request seed).  Every request carries an explicit ``seed``,
    which is what makes the post-failover rerun bit-identical to a
    fault-free run.  Returns ``(arrival_step, GenerationRequest)``
    pairs.
    """
    from repro.serving.request import GenerationRequest

    if n_requests < 1 or arrivals_per_step < 1:
        raise ValueError("n_requests and arrivals_per_step must be >= 1")
    if prompt_tokens < 1 or max_new_tokens < 1:
        raise ValueError("prompt_tokens and max_new_tokens must be >= 1")
    if prompt_jitter < 0 or new_token_jitter < 0:
        raise ValueError("jitters must be >= 0")
    trace: List[tuple] = []
    for i in range(n_requests):
        prompt = prompt_tokens + int(rng.integers(0, prompt_jitter + 1))
        max_new = max_new_tokens + int(
            rng.integers(0, new_token_jitter + 1)
        )
        request = GenerationRequest(
            prompt_keys=rng.normal(size=(n_heads, prompt, head_dim)),
            prompt_values=rng.normal(size=(n_heads, prompt, head_dim)),
            max_new_tokens=max_new,
            seed=int(rng.integers(0, 2**31 - 1)),
        )
        trace.append((i // arrivals_per_step, request))
    return trace
