"""Tests for the conservative probability estimator and the DAG model."""

import numpy as np
import pytest

from repro.core.estimator import (
    DenominatorAggregator,
    PruneRule,
    certified_upper_bounds,
    true_probabilities,
)
from repro.utils.numerics import RunningLogSum


class TestRunningLogSum:
    def test_empty_is_minus_inf(self):
        assert RunningLogSum().log_value == -np.inf

    def test_single_term(self):
        s = RunningLogSum()
        s.add(3.5)
        assert np.isclose(s.log_value, 3.5)

    def test_matches_logsumexp(self):
        rng = np.random.default_rng(0)
        terms = rng.normal(size=200) * 10
        s = RunningLogSum()
        for t in terms:
            s.add(t)
        expected = np.logaddexp.reduce(terms)
        assert np.isclose(s.log_value, expected)

    def test_replace_tightens(self):
        s = RunningLogSum()
        s.add(0.0)
        s.add(1.0)
        s.replace(0.0, 2.0)
        expected = np.logaddexp(2.0, 1.0)
        assert np.isclose(s.log_value, expected)

    def test_replace_backwards_rejected(self):
        s = RunningLogSum()
        s.add(5.0)
        with pytest.raises(ValueError):
            s.replace(5.0, 4.0)

    def test_minus_inf_terms(self):
        s = RunningLogSum()
        s.add(-np.inf)
        assert s.log_value == -np.inf
        s.add(1.0)
        assert np.isclose(s.log_value, 1.0)

    def test_large_dynamic_range(self):
        s = RunningLogSum()
        s.add(-500.0)
        s.add(500.0)
        assert np.isclose(s.log_value, 500.0)


class TestDenominatorAggregator:
    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(1)
        dag = DenominatorAggregator()
        prev = -np.inf
        for token in range(100):
            dag.submit(token, float(rng.normal() * 5))
            assert dag.log_denominator >= prev - 1e-12
            prev = dag.log_denominator

    def test_tightening_increases_denominator(self):
        dag = DenominatorAggregator()
        dag.submit(0, 0.0)
        d0 = dag.log_denominator
        dag.submit(0, 1.0)  # bound tightened by a later chunk
        assert dag.log_denominator > d0

    def test_backwards_bound_rejected(self):
        dag = DenominatorAggregator()
        dag.submit(0, 1.0)
        with pytest.raises(ValueError):
            dag.submit(0, 0.0)

    def test_lower_bounds_true_denominator(self):
        """D from lower bounds never exceeds the true softmax denominator."""
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50) * 3
        slack = np.abs(rng.normal(size=50))  # s_min = s - slack <= s
        dag = DenominatorAggregator()
        for i, (s, sl) in enumerate(zip(scores, slack)):
            dag.submit(i, float(s - sl))
        true_log_den = np.logaddexp.reduce(scores)
        assert dag.log_denominator <= true_log_den + 1e-12

    def test_len_counts_tokens(self):
        dag = DenominatorAggregator()
        dag.submit(0, 1.0)
        dag.submit(1, 2.0)
        dag.submit(0, 1.5)
        assert len(dag) == 2


class TestPruneRule:
    def test_never_prunes_on_empty_denominator(self):
        rule = PruneRule(np.log(1e-3))
        decision = rule.check(s_max=-100.0, log_denominator=-np.inf)
        assert not decision.pruned

    def test_prune_decision_matches_linear_domain(self):
        rule = PruneRule(np.log(1e-3))
        # p'' = exp(-10) / exp(0) = 4.5e-5 <= 1e-3 -> prune
        assert rule.check(-10.0, 0.0).pruned
        # p'' = exp(-2) = 0.135 > 1e-3 -> keep
        assert not rule.check(-2.0, 0.0).pruned

    def test_boundary_inclusive(self):
        """p'' == thr prunes (predicate is <=)."""
        rule = PruneRule(np.log(1e-3))
        assert rule.check(np.log(1e-3), 0.0).pruned


class TestCertifiedBound:
    """The central safety theorem: p'' >= p_true for any subset/bounds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_upper_bound_dominates_truth(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = 100
        scores = rng.normal(size=n) * rng.uniform(1, 6)
        lower_slack = np.abs(rng.normal(size=n))
        upper_slack = np.abs(rng.normal(size=n))
        s_min = scores - lower_slack
        s_max = scores + upper_slack
        # any subset
        subset = rng.random(n) < rng.uniform(0.2, 1.0)
        subset[rng.integers(n)] = True  # non-empty
        log_den = np.logaddexp.reduce(s_min[subset])
        p_true = true_probabilities(scores)
        p_upper = certified_upper_bounds(s_max, log_den)
        assert np.all(p_upper >= p_true - 1e-12)

    def test_infinite_bound_on_empty_denominator(self):
        ub = certified_upper_bounds(np.array([0.0, 1.0]), -np.inf)
        assert np.all(np.isinf(ub))

    def test_true_probabilities_sum_to_one(self):
        p = true_probabilities(np.array([1.0, 2.0, 3.0]))
        assert np.isclose(p.sum(), 1.0)

    def test_true_probabilities_empty(self):
        assert true_probabilities(np.zeros(0)).size == 0
