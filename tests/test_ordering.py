"""Tests for token processing-order policies."""

import numpy as np
import pytest

from repro.core.ordering import processing_order


class TestProcessingOrder:
    @pytest.mark.parametrize("policy", ["sink_recency", "recency", "chronological"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 100])
    def test_is_permutation(self, policy, n):
        order = processing_order(n, policy)
        assert sorted(order.tolist()) == list(range(n))

    def test_chronological(self):
        assert processing_order(4, "chronological").tolist() == [0, 1, 2, 3]

    def test_recency(self):
        assert processing_order(4, "recency").tolist() == [3, 2, 1, 0]

    def test_sink_recency_structure(self):
        order = processing_order(6, "sink_recency").tolist()
        # newest first, sink second, then reverse chronological
        assert order == [5, 0, 4, 3, 2, 1]

    def test_sink_recency_small(self):
        assert processing_order(1, "sink_recency").tolist() == [0]
        assert processing_order(2, "sink_recency").tolist() == [1, 0]

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            processing_order(5, "zigzag")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            processing_order(-1)


class TestOrderEffectOnPruning:
    def test_sink_recency_prunes_at_least_chronological(self):
        """Processing dominant tokens first strengthens early prune checks.

        With a recency-skewed score profile (the common case in generation),
        the paper's order should never do much worse than chronological; in
        aggregate it prunes more K chunks.
        """
        from repro.core import TokenPickerConfig, token_picker_scores

        rng = np.random.default_rng(0)
        totals = {"sink_recency": 0, "chronological": 0}
        for seed in range(5):
            r2 = np.random.default_rng(seed)
            t, d = 128, 32
            keys = r2.normal(size=(t, d))
            # recent tokens dominant
            q = keys[-3:].sum(axis=0) + 0.2 * r2.normal(size=d)
            for policy in totals:
                cfg = TokenPickerConfig(
                    threshold=1e-3, order=policy, schedule="depth"
                )
                res = token_picker_scores(q, keys, cfg)
                totals[policy] += res.stats.k_chunks_fetched
        assert totals["sink_recency"] <= totals["chronological"]
