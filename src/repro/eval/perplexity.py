"""Perplexity evaluation with pluggable generation-phase attention.

The paper's algorithm metric (Sec. 5.1.1): perplexity on Wikitext-2 with
pre-trained models, where ToPick's pruning replaces exact attention.  Here
the substrate is the NumPy LM on a held-out synthetic corpus; the measured
quantity — ΔPPL caused by pruning at a threshold — is the same.

Evaluation runs the *incremental decode path* position by position
(``TinyGPT.sequence_logits``), so a pruned attention backend perturbs all
downstream activations exactly as in deployment, not just the final layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.config import TokenPickerConfig
from repro.core.pruning import AccessCounter
from repro.model.attention import TokenPickerBackend
from repro.model.transformer import AttentionBackend, TinyGPT


@dataclass(frozen=True)
class PerplexityResult:
    """NLL/PPL over an evaluation corpus."""

    nll: float
    n_tokens: int

    @property
    def ppl(self) -> float:
        return float(math.exp(self.nll))


def sequence_nll(
    model: TinyGPT,
    tokens: np.ndarray,
    backend: Optional[AttentionBackend] = None,
) -> PerplexityResult:
    """Mean next-token NLL of one sequence under a backend."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or len(tokens) < 2:
        raise ValueError("need a 1-D sequence of at least 2 tokens")
    logits = model.sequence_logits(tokens, backend)
    # predict token[i+1] from logits[i]
    z = logits[:-1]
    targets = tokens[1:]
    m = z.max(axis=1, keepdims=True)
    logz = np.log(np.exp(z - m).sum(axis=1)) + m[:, 0]
    nll = float(np.mean(logz - z[np.arange(len(targets)), targets]))
    return PerplexityResult(nll=nll, n_tokens=len(targets))


def corpus_perplexity(
    model: TinyGPT,
    corpus: np.ndarray,
    backend_factory: Optional[Callable[[], AttentionBackend]] = None,
    window: int = 128,
    max_windows: int = 4,
) -> PerplexityResult:
    """PPL over non-overlapping windows of a corpus.

    ``backend_factory`` builds a fresh backend per window (stateful
    backends like SpAtten must not leak importance across windows).
    """
    corpus = np.asarray(corpus)
    window = min(window, model.config.max_context)
    if window < 2:
        raise ValueError("window must be >= 2")
    n_windows = min(max_windows, len(corpus) // window)
    if n_windows < 1:
        raise ValueError("corpus shorter than one evaluation window")
    total_nll = 0.0
    total_tokens = 0
    for w in range(n_windows):
        seq = corpus[w * window : (w + 1) * window]
        backend = backend_factory() if backend_factory is not None else None
        r = sequence_nll(model, seq, backend)
        total_nll += r.nll * r.n_tokens
        total_tokens += r.n_tokens
    return PerplexityResult(nll=total_nll / total_tokens, n_tokens=total_tokens)


@dataclass
class PPLDeltaMetric:
    """ΔPPL(threshold) callable for threshold calibration.

    Caches the exact-attention reference PPL; each call evaluates the
    Token-Picker backend at the requested threshold and returns
    ``PPL(thr) - PPL(exact)``.
    """

    model: TinyGPT
    corpus: np.ndarray
    window: int = 128
    max_windows: int = 4
    config_base: TokenPickerConfig = TokenPickerConfig()

    def __post_init__(self) -> None:
        self.reference = corpus_perplexity(
            self.model, self.corpus, None, self.window, self.max_windows
        )
        self.evaluations: List[tuple] = []

    def __call__(self, threshold: float) -> float:
        cfg = self.config_base.with_threshold(threshold)
        result = corpus_perplexity(
            self.model,
            self.corpus,
            lambda: TokenPickerBackend(cfg),
            self.window,
            self.max_windows,
        )
        delta = result.ppl - self.reference.ppl
        self.evaluations.append((threshold, result.ppl, delta))
        return delta


def backend_perplexity_and_traffic(
    model: TinyGPT,
    corpus: np.ndarray,
    backend_factory: Callable[[], AttentionBackend],
    window: int = 128,
    max_windows: int = 4,
):
    """PPL plus the accumulated access counters of the backend.

    Returns ``(PerplexityResult, AccessCounter)`` where the counter is the
    merge over windows — PPL and memory accounting from the same run.
    """
    corpus = np.asarray(corpus)
    window = min(window, model.config.max_context)
    n_windows = min(max_windows, len(corpus) // window)
    if n_windows < 1:
        raise ValueError("corpus shorter than one evaluation window")
    total = AccessCounter()
    total_nll, total_tokens = 0.0, 0
    for w in range(n_windows):
        seq = corpus[w * window : (w + 1) * window]
        backend = backend_factory()
        r = sequence_nll(model, seq, backend)
        total_nll += r.nll * r.n_tokens
        total_tokens += r.n_tokens
        c = backend.counter
        total.k_bits += c.k_bits
        total.v_bits += c.v_bits
        total.baseline_k_bits += c.baseline_k_bits
        total.baseline_v_bits += c.baseline_v_bits
        total.instances += c.instances
        total.tokens_seen += c.tokens_seen
        total.tokens_kept += c.tokens_kept
    return PerplexityResult(nll=total_nll / total_tokens, n_tokens=total_tokens), total
