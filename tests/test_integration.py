"""Integration tests: full pipelines across modules, plus the examples.

These exercise the same paths a user follows: train a (very small) LM,
generate with pruned attention, evaluate PPL + traffic, run the hardware
simulator on instances harvested from the LM, and execute the fast example
scripts end to end.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import TokenPickerConfig, token_picker_scores
from repro.eval.perplexity import backend_perplexity_and_traffic, corpus_perplexity
from repro.hw import ToPickAccelerator
from repro.model import TinyGPT, TrainConfig, tiny_config, train
from repro.model.attention import TokenPickerBackend
from repro.workloads import mixed_corpus, train_eval_split

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


@pytest.fixture(scope="module")
def trained_setup():
    """A quickly-trained LM (seconds, not the full reference model)."""
    corpus = mixed_corpus(12_000, vocab_size=32, seed=3)
    train_tokens, eval_tokens = train_eval_split(corpus, 0.15)
    model = TinyGPT(
        tiny_config(name="integ", n_layers=2, d_model=32, n_heads=4,
                    vocab_size=32, max_context=96),
        seed=3,
    )
    result = train(
        model, train_tokens,
        TrainConfig(steps=120, batch_size=8, seq_len=64, lr=2.5e-3),
        seed=3,
    )
    return model, eval_tokens, result


class TestTrainingPipeline:
    def test_loss_improves(self, trained_setup):
        _, _, result = trained_setup
        assert np.mean(result.losses[-10:]) < result.losses[0] - 0.3

    def test_trained_ppl_beats_uniform(self, trained_setup):
        model, eval_tokens, _ = trained_setup
        ppl = corpus_perplexity(model, eval_tokens, window=64, max_windows=2).ppl
        assert ppl < 32 * 0.8  # clearly better than uniform over vocab


class TestPrunedEvaluationPipeline:
    def test_ppl_and_traffic_tradeoff(self, trained_setup):
        model, eval_tokens, _ = trained_setup
        ref = corpus_perplexity(model, eval_tokens, window=64, max_windows=2)
        tight, tight_c = backend_perplexity_and_traffic(
            model, eval_tokens,
            lambda: TokenPickerBackend(TokenPickerConfig(threshold=1e-6)),
            window=64, max_windows=2,
        )
        loose, loose_c = backend_perplexity_and_traffic(
            model, eval_tokens,
            lambda: TokenPickerBackend(TokenPickerConfig(threshold=5e-2)),
            window=64, max_windows=2,
        )
        # tiny threshold: lossless and little pruning
        assert tight.ppl == pytest.approx(ref.ppl, rel=0.02)
        # loose threshold: strictly more pruning
        assert loose_c.total_bits < tight_c.total_bits
        assert loose_c.keep_fraction < 1.0

    def test_generation_with_pruning_stays_in_vocab(self, trained_setup):
        model, eval_tokens, _ = trained_setup
        backend = TokenPickerBackend(TokenPickerConfig(threshold=1e-2))
        out = model.generate(np.asarray(eval_tokens[:8]), 16, backend=backend)
        assert out.min() >= 0 and out.max() < 32
        assert len(out) == 24


class TestLMToHardwarePipeline:
    def test_harvested_instances_run_on_accelerator(self, trained_setup):
        """q/K harvested from the trained LM drive the cycle simulator."""
        model, eval_tokens, _ = trained_setup
        seq = np.asarray(eval_tokens[:64])
        _, cache = model.forward(seq[None, :])
        _, layer_caches, _, _ = cache
        q_all = layer_caches[0][2][0]  # (H, T, dh)
        k_all = layer_caches[0][3][0]
        acc = ToPickAccelerator(config=TokenPickerConfig(threshold=5e-3))
        pos = 60
        total_kept = 0
        for h in range(model.config.n_heads):
            r = acc.run_instance(q_all[h, pos], k_all[h, : pos + 1], variant="topick")
            assert r.cycles > 0
            assert r.dram_bytes <= r.baseline_dram_bytes
            total_kept += int(r.kept.sum())
        assert total_kept >= model.config.n_heads  # guard survives everywhere

    def test_functional_vs_hw_access_consistency(self, trained_setup):
        model, eval_tokens, _ = trained_setup
        seq = np.asarray(eval_tokens[:64])
        _, cache = model.forward(seq[None, :])
        q = cache[1][0][2][0][0, 60]
        keys = cache[1][0][3][0][0, :61]
        cfg = TokenPickerConfig(threshold=5e-3)
        fn = token_picker_scores(q, keys, cfg)
        hw = ToPickAccelerator(config=cfg).run_instance(q, keys, variant="v_only")
        assert np.array_equal(fn.kept, hw.kept)


class TestExamples:
    """The fast examples must run as scripts (the LM-backed ones are
    exercised by benchmarks where the cached model exists)."""

    @pytest.mark.parametrize(
        "script", ["quickstart.py", "accelerator_simulation.py",
                   "spatten_comparison.py"]
    )
    def test_example_runs(self, script):
        proc = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / script)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert len(proc.stdout) > 100
