"""Session-cached reference LM and calibrated thresholds.

Training the NumPy LM takes tens of seconds; the experiment drivers and
benchmarks share one instance through this module.  Two cache levels:

* in-process memoisation (one model per configuration per process), and
* an on-disk ``.npz`` parameter cache under ``<repo>/.cache/`` so repeated
  benchmark invocations skip training entirely.

Everything is keyed by deterministic seeds — deleting the cache directory
reproduces identical artifacts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Tuple

import numpy as np

from repro.core.thresholds import calibrate_presets
from repro.eval.perplexity import PPLDeltaMetric
from repro.model.config import tiny_config
from repro.model.trainer import TrainConfig, train
from repro.model.transformer import TinyGPT
from repro.workloads.corpus import mixed_corpus, train_eval_split

#: Reference setup used by every experiment driver.
REFERENCE_SEED = 7
REFERENCE_VOCAB = 64
REFERENCE_CORPUS_TOKENS = 60_000
REFERENCE_TRAIN_STEPS = 700
#: Mean attended context during calibration: evaluation windows of length W
#: present contexts 1..W to the pruner, so the mean is about (W+1)/2.
#: Used by `scale_threshold_for_context` to transfer thresholds to the
#: full-length hardware workloads (see repro.core.thresholds).
CALIBRATION_WINDOW = 128
CALIBRATION_CONTEXT = (CALIBRATION_WINDOW + 1) // 2

_memo: Dict[str, object] = {}


def cache_dir() -> Path:
    """Writable cache directory (created on demand)."""
    root = os.environ.get("TOKENPICKER_CACHE", "")
    path = Path(root) if root else Path(__file__).resolve().parents[3] / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def reference_corpus() -> Tuple[np.ndarray, np.ndarray]:
    """The train/eval corpus pair used by all experiments."""
    key = "corpus"
    if key not in _memo:
        corpus = mixed_corpus(
            REFERENCE_CORPUS_TOKENS, vocab_size=REFERENCE_VOCAB, seed=REFERENCE_SEED
        )
        _memo[key] = train_eval_split(corpus, eval_fraction=0.1)
    return _memo[key]


def get_reference_model(
    steps: int = REFERENCE_TRAIN_STEPS,
    force_retrain: bool = False,
    verbose: bool = False,
) -> TinyGPT:
    """The trained reference LM (cached in process and on disk)."""
    key = f"model-{steps}"
    if not force_retrain and key in _memo:
        return _memo[key]

    config = tiny_config(
        name="tiny-ref", n_layers=2, d_model=64, n_heads=4,
        vocab_size=REFERENCE_VOCAB, max_context=256,
    )
    model = TinyGPT(config, seed=REFERENCE_SEED)
    path = cache_dir() / f"tiny-ref-{steps}-s{REFERENCE_SEED}.npz"
    if path.exists() and not force_retrain:
        data = np.load(path)
        if set(data.files) == set(model.params):
            for name in model.params:
                model.params[name] = data[name]
            _memo[key] = model
            return model

    train_tokens, _ = reference_corpus()
    train(
        model,
        train_tokens,
        TrainConfig(steps=steps, batch_size=8, seq_len=128, lr=2.5e-3),
        seed=REFERENCE_SEED,
        verbose=verbose,
    )
    np.savez(path, **model.params)
    _memo[key] = model
    return model


def get_calibrated_thresholds(
    force_recalibrate: bool = False,
    window: int = CALIBRATION_WINDOW,
    max_windows: int = 3,
) -> Dict[str, float]:
    """Thresholds for the named configs (ToPick / -0.3 / -0.5).

    Calibrated against ΔPPL budgets on the held-out corpus with the
    reference model; cached on disk as JSON.
    """
    key = "thresholds"
    if not force_recalibrate and key in _memo:
        return _memo[key]
    path = cache_dir() / f"thresholds-s{REFERENCE_SEED}.json"
    if path.exists() and not force_recalibrate:
        data = json.loads(path.read_text())
        if set(data) == {"topick", "topick-0.3", "topick-0.5"}:
            _memo[key] = {k: float(v) for k, v in data.items()}
            return _memo[key]

    model = get_reference_model()
    _, eval_tokens = reference_corpus()
    metric = PPLDeltaMetric(model, eval_tokens, window=window, max_windows=max_windows)
    results = calibrate_presets(metric, iterations=7, monotone_slack=0.02)
    thresholds = {name: r.threshold for name, r in results.items()}
    path.write_text(json.dumps(thresholds, indent=2))
    _memo[key] = thresholds
    return thresholds
