"""Benchmark-owned input generation: workload specs and seeded traces.

Every tensor the program sees is drawn here with NumPy from ``--seed``;
nothing is taken from ``repro.workloads``, so a later change to the
library cannot move the benchmark's inputs.  This module imports nothing
from ``repro`` — the drive code wraps the arrays it returns into
``GenerationRequest`` objects with pre-drawn replay step sources.

A workload is a *corpus* (one long K/V token stream with a share of
low-information filler tokens scaled down) plus a list of requests whose
prompts are windows into the corpus (views, so 256 prompts of ~1k tokens
cost one corpus of memory, not a gigabyte).  Decode-step queries follow
the content + recency + sink recipe of ``repro/workloads/scores.py``,
re-implemented here and vectorised over a request's decode steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

N_HEADS = 4
HEAD_DIM = 64
THRESHOLD = 2e-3
#: factor the keys of low-information filler tokens are scaled by
FILLER_SCALE = 0.25


@dataclass(frozen=True)
class HeadRecipe:
    """Score structure of one attention head (Fig. 4a's head archetypes)."""

    n_dominant: int
    recency_strength: float
    recency_decay: float
    sink_strength: float
    spread: float


#: one recipe per engine head: sink+current, strongly local, local+sink,
#: content heavy — the archetype mix ``HEAD_ARCHETYPES`` cycles through
HEAD_RECIPES: Tuple[HeadRecipe, ...] = (
    HeadRecipe(2, 1.6, 0.45, 1.2, 2.3),
    HeadRecipe(3, 1.6, 0.20, 0.25, 2.05),
    HeadRecipe(6, 0.9, 0.10, 0.9, 1.8),
    HeadRecipe(12, 0.6, 0.05, 0.4, 1.45),
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One traffic mix.  ``stack`` picks the program under test:
    ``"engine"`` is one ``ServingEngine``; ``"cluster"`` is the async
    frontend over a two-replica sharded, tiered, prefix-caching router."""

    name: str
    why: str
    stack: str
    n_requests: int
    prompt_lo: int
    prompt_hi: int
    new_tokens: int
    burst: int
    gap_steps: int
    max_batch_size: int
    capacity_tokens: int
    prefill_budget: Optional[int]
    #: share of corpus tokens that are low-information filler
    filler_frac: float = 0.0
    #: ``"recipe"``: content + recency + sink queries; ``"newest"``:
    #: queries aligned with the step's own key (the peaked case)
    query_mode: str = "recipe"
    #: shared-prefix structure: ``prefix_groups`` prefixes of
    #: ``prefix_tokens`` each; the prompt is prefix + private remainder
    prefix_groups: int = 0
    prefix_tokens: int = 0


FULL_SPECS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="decode_calibrated",
        why="steady batched decode at the paper's operating point: kernel "
        "and engine per-step overhead share the time, ratios compare "
        "with 12.1x / 2.6x / 2.3x",
        stack="engine",
        n_requests=40,
        prompt_lo=448,
        prompt_hi=576,
        new_tokens=48,
        burst=1,
        gap_steps=2,
        max_batch_size=32,
        capacity_tokens=32 * 640,
        prefill_budget=1024,
    ),
    WorkloadSpec(
        name="decode_long_peaked",
        why="almost all step time is the kernel's chunk-0 scoring over "
        "~16k (head, token) pairs per sequence while the alive set "
        "collapses; engine, scheduler and pool overhead are negligible",
        stack="engine",
        n_requests=4,
        prompt_lo=4096,
        prompt_hi=4096,
        new_tokens=96,
        burst=4,
        gap_steps=0,
        max_batch_size=4,
        capacity_tokens=4 * 4192,
        prefill_budget=None,
        filler_frac=0.75,
        query_mode="newest",
    ),
    WorkloadSpec(
        name="prefill_churn",
        why="the same pool and quantisation layers used the other way: "
        "scale freezing, encode, append, block alloc/free, admission and "
        "retire/refill dominate and the kernel reads little; TTFT is "
        "what users feel",
        stack="engine",
        n_requests=112,
        prompt_lo=768,
        prompt_hi=1280,
        new_tokens=4,
        burst=4,
        gap_steps=9,
        max_batch_size=16,
        capacity_tokens=16 * 1296,
        prefill_budget=512,
    ),
    WorkloadSpec(
        name="stack_shared_prefix",
        why="the only workload where frontend, router, memory manager, "
        "tiers, radix cache and shard group do work; a change to any of "
        "them shows only here",
        stack="cluster",
        n_requests=24,
        prompt_lo=384,
        prompt_hi=384,
        new_tokens=24,
        burst=4,
        gap_steps=3,
        max_batch_size=16,
        capacity_tokens=2560,
        prefill_budget=512,
        filler_frac=0.75,
        prefix_groups=4,
        prefix_tokens=256,
    ),
)


def _tiny(spec: WorkloadSpec) -> WorkloadSpec:
    """Sub-second shape of a workload for the smoke test: same stack and
    structure (bursts, chunked prefill, shared prefixes, preemption
    pressure), an order of magnitude fewer tokens."""
    if spec.name == "decode_long_peaked":
        return replace(
            spec, n_requests=4, prompt_lo=1024, prompt_hi=1024,
            new_tokens=6, max_batch_size=2, capacity_tokens=2 * 1040,
        )
    if spec.name == "stack_shared_prefix":
        return replace(
            spec, n_requests=12, prompt_lo=96, prompt_hi=96,
            new_tokens=16, burst=6, gap_steps=3, max_batch_size=8,
            capacity_tokens=448, prefill_budget=128, prefix_tokens=64,
        )
    lo, hi = spec.prompt_lo // 8, spec.prompt_hi // 8
    return replace(
        spec,
        n_requests=max(spec.n_requests // 6, 2 * spec.burst),
        prompt_lo=lo,
        prompt_hi=hi,
        new_tokens=min(spec.new_tokens, 8),
        max_batch_size=8,
        capacity_tokens=8 * (hi + 16),
        prefill_budget=(
            None if spec.prefill_budget is None else spec.prefill_budget // 8
        ),
    )


SPECS: Dict[str, Dict[str, WorkloadSpec]] = {
    "full": {s.name: s for s in FULL_SPECS},
    "tiny": {s.name: _tiny(s) for s in FULL_SPECS},
}
WORKLOAD_NAMES: Tuple[str, ...] = tuple(s.name for s in FULL_SPECS)


@dataclass
class RequestInputs:
    """One request's tensors: prompt K/V (H, t, d), calibration queries
    and the pre-drawn decode stream, one ``(q, k, v)`` of (H, d) each per
    step."""

    index: int
    arrival_step: int
    prompt_keys: np.ndarray
    prompt_values: np.ndarray
    queries: np.ndarray  # (H, n_new, d) — the decode queries, for Q scales
    stream: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def prompt_tokens(self) -> int:
        return self.prompt_keys.shape[1]


def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed, WORKLOAD_NAMES.index(workload), *stream]
    )


#: the schedule — which request has which prompt length and which shared
#: prefix — is drawn once, not per seed: seeds change the data, never the
#: amount or the order of work, so run-to-run spread across seeds measures
#: the machine and the data, not a reshuffled arrival pattern
_SCHEDULE_SEED = 20240613


def _prompt_lengths(spec: WorkloadSpec) -> np.ndarray:
    """A fixed evenly spaced grid of lengths in a fixed shuffled order."""
    grid = np.linspace(spec.prompt_lo, spec.prompt_hi, spec.n_requests)
    lengths = np.rint(grid).astype(np.int64)
    _rng(_SCHEDULE_SEED, spec.name, 1).shuffle(lengths)
    return lengths


class Workload:
    """A seeded corpus plus lazily built per-request inputs.

    ``request(i)`` is a pure function of (spec, seed, i), so the set-up
    probe can build request 0 alone and the verifier can rebuild any
    sampled request.
    """

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        rng = _rng(seed, spec.name, 0)
        # shared prefixes sit in front; prompt windows start behind them
        # and never run off the end
        prefix_end = spec.prefix_groups * spec.prefix_tokens
        n_corpus = prefix_end + max(3 * spec.prompt_hi, 4096)
        shape = (N_HEADS, n_corpus, HEAD_DIM)
        self.corpus_k = rng.standard_normal(shape)
        self.corpus_v = rng.standard_normal(shape)
        self.filler = rng.random(n_corpus) < spec.filler_frac
        self.corpus_k[:, self.filler] *= FILLER_SCALE
        self._lengths = _prompt_lengths(spec)
        self._offsets = _rng(seed, spec.name, 2).integers(
            prefix_end, n_corpus - spec.prompt_hi, size=spec.n_requests
        )
        if spec.prefix_groups:
            self._groups = (
                _rng(_SCHEDULE_SEED, spec.name, 3).permutation(spec.n_requests)
                % spec.prefix_groups
            )

    def arrival_step(self, index: int) -> int:
        return (index // self.spec.burst) * self.spec.gap_steps

    def _prompt(self, index: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Prompt keys, values (H, t, d) and the filler mask (t,)."""
        spec = self.spec
        t = int(self._lengths[index])
        off = int(self._offsets[index])
        if spec.prefix_groups:
            shared = int(self._groups[index]) * spec.prefix_tokens
            positions = np.concatenate([
                np.arange(shared, shared + spec.prefix_tokens),
                np.arange(off, off + t - spec.prefix_tokens),
            ])
        else:
            positions = slice(off, off + t)  # a view, not a copy
        return (
            self.corpus_k[:, positions],
            self.corpus_v[:, positions],
            self.filler[positions],
        )

    def request(self, index: int) -> RequestInputs:
        spec = self.spec
        rng = _rng(self.seed, spec.name, 4, index)
        prompt_k, prompt_v, filler = self._prompt(index)
        informative = np.flatnonzero(~filler)
        n_new = spec.new_tokens
        new_k = rng.standard_normal((N_HEADS, n_new, HEAD_DIM))
        new_v = rng.standard_normal((N_HEADS, n_new, HEAD_DIM))
        if spec.query_mode == "newest":
            q = 2.0 * new_k + 0.3 * rng.standard_normal(new_k.shape)
        else:
            all_k = np.concatenate([prompt_k, new_k], axis=1)
            q = np.stack(
                [
                    _recipe_queries(
                        rng, all_k[h], informative, n_new, HEAD_RECIPES[h]
                    )
                    for h in range(N_HEADS)
                ]
            )
        stream = [
            (q[:, s], new_k[:, s], new_v[:, s]) for s in range(n_new)
        ]
        return RequestInputs(
            index=index,
            arrival_step=self.arrival_step(index),
            prompt_keys=prompt_k,
            prompt_values=prompt_v,
            queries=q,
            stream=stream,
        )

    def requests(self) -> List[RequestInputs]:
        return [self.request(i) for i in range(self.spec.n_requests)]


def _recipe_queries(
    rng: np.random.Generator,
    keys: np.ndarray,
    informative: np.ndarray,
    n_new: int,
    recipe: HeadRecipe,
) -> np.ndarray:
    """Queries (n_new, d) for one head over ``keys`` (prompt then the
    ``n_new`` decode keys).  Step ``s`` attends over the prompt and the
    first ``s + 1`` decode keys: a persistent pool of content tokens
    among the prompt's informative (non-filler) positions, weights
    re-drawn each step; an exponentially decaying alignment with the most
    recent tokens; and the sink token 0.  Then the norm is fixed so the
    score standard deviation is the head's spread."""
    t_prompt, d = keys.shape[0] - n_new, keys.shape[1]
    q = 0.25 * rng.standard_normal((n_new, d))
    n_dom = min(recipe.n_dominant, informative.size)
    if n_dom:
        dominant = rng.choice(informative, size=n_dom, replace=False)
        weights = rng.uniform(0.5, 1.5, size=(n_new, n_dom))
        q += weights @ keys[dominant]
    n_recent = min(t_prompt, max(1, int(4.0 / recipe.recency_decay)))
    ages = np.arange(n_recent)
    rec_w = recipe.recency_strength * np.exp(-recipe.recency_decay * ages)
    newest = t_prompt + np.arange(n_new)
    recent = keys[newest[:, None] - ages[None, :]]  # (n_new, n_recent, d)
    q += np.einsum("a,sad->sd", rec_w, recent) / max(1.0, np.sqrt(n_recent))
    q += recipe.sink_strength * keys[0]
    norms = np.linalg.norm(q, axis=1, keepdims=True) / np.sqrt(d) + 1e-12
    return q / norms * recipe.spread
