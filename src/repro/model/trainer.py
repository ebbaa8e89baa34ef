"""Training loop for the NumPy LM substrate.

Plain Adam with linear warmup, gradient clipping and deterministic
batching.  The models are tiny (10^5-10^6 parameters) and the corpora
synthetic, so a few hundred steps reach a clearly non-trivial perplexity —
enough structure in the attention maps (sink + locality + content) for the
pruning experiments to be meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.model.layers import adam_update
from repro.model.transformer import TinyGPT
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters for :func:`train`."""

    steps: int = 300
    batch_size: int = 8
    seq_len: int = 128
    lr: float = 3e-3
    warmup_steps: int = 20
    lr_decay: str = "cosine"  # "cosine" or "constant"
    min_lr_fraction: float = 0.1
    grad_clip: float = 1.0
    weight_decay: float = 0.01
    log_every: int = 50

    def __post_init__(self) -> None:
        if self.steps < 1 or self.batch_size < 1 or self.seq_len < 2:
            raise ValueError("steps/batch_size must be >= 1 and seq_len >= 2")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.lr_decay not in ("cosine", "constant"):
            raise ValueError("lr_decay must be 'cosine' or 'constant'")
        if not 0.0 <= self.min_lr_fraction <= 1.0:
            raise ValueError("min_lr_fraction must be in [0, 1]")

    def lr_at(self, step: int) -> float:
        """Warmup then (optionally) cosine decay to min_lr_fraction."""
        warm = min(1.0, step / max(1, self.warmup_steps))
        if self.lr_decay == "constant" or step <= self.warmup_steps:
            return self.lr * warm
        progress = (step - self.warmup_steps) / max(1, self.steps - self.warmup_steps)
        floor = self.min_lr_fraction
        cos = 0.5 * (1.0 + np.cos(np.pi * min(1.0, progress)))
        return self.lr * (floor + (1.0 - floor) * cos)


@dataclass
class TrainResult:
    """Loss trajectory of a training run."""

    losses: List[float]
    final_loss: float
    steps: int


def sample_batch(
    corpus: np.ndarray, batch_size: int, seq_len: int, rng: np.random.Generator
) -> np.ndarray:
    """Random contiguous windows from a 1-D token corpus."""
    corpus = np.asarray(corpus)
    if corpus.ndim != 1:
        raise ValueError("corpus must be a 1-D token array")
    if len(corpus) < seq_len + 1:
        raise ValueError(
            f"corpus too short: {len(corpus)} tokens for seq_len {seq_len}"
        )
    starts = rng.integers(0, len(corpus) - seq_len, size=batch_size)
    return np.stack([corpus[s : s + seq_len] for s in starts])


def _clip_grads(grads: Dict[str, np.ndarray], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= scale
    return total


def train(
    model: TinyGPT,
    corpus: np.ndarray,
    config: Optional[TrainConfig] = None,
    seed: int = 0,
    verbose: bool = False,
) -> TrainResult:
    """Train ``model`` on ``corpus`` with Adam; returns the loss history."""
    config = config or TrainConfig()
    seq_len = min(config.seq_len, model.config.max_context)
    rng = make_rng(seed)
    adam_state: Dict[str, Dict[str, np.ndarray]] = {}
    losses: List[float] = []

    for step in range(1, config.steps + 1):
        batch = sample_batch(corpus, config.batch_size, seq_len, rng)
        loss, grads = model.loss_and_grads(batch)
        _clip_grads(grads, config.grad_clip)
        adam_update(
            model.params,
            grads,
            adam_state,
            lr=config.lr_at(step),
            step=step,
            weight_decay=config.weight_decay,
        )
        losses.append(loss)
        if verbose and (step % config.log_every == 0 or step == 1):
            print(f"step {step:5d}  loss {loss:.4f}")

    return TrainResult(losses=losses, final_loss=losses[-1], steps=config.steps)
