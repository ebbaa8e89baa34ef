"""The gain rule ``tools/ab_pairs.py`` prints in its ``claim`` column."""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "ab_pairs", os.path.join(HERE, "..", "tools", "ab_pairs.py")
)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

BASE = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]


def test_clear_win_in_every_pair_is_a_claim():
    change = [b - 2.0 for b in BASE]
    assert ab_pairs.wins(BASE, change, "lower") == 10
    assert ab_pairs.claim(BASE, change, "lower")
    assert not ab_pairs.claim(BASE, change, "higher")


def test_nine_of_ten_pairs_is_enough_but_eight_is_not():
    change = [b - 2.0 for b in BASE]
    change[0] = BASE[0] + 1.0
    assert ab_pairs.claim(BASE, change, "lower")
    change[1] = BASE[1] + 1.0
    assert not ab_pairs.claim(BASE, change, "lower")


def test_ties_count_for_neither_side():
    change = [b - 2.0 for b in BASE]
    change[0] = BASE[0]
    change[1] = BASE[1]
    assert ab_pairs.wins(BASE, change, "lower") == 8
    assert not ab_pairs.claim(BASE, change, "lower")


def test_median_gap_must_exceed_the_parents_spread():
    """Winning every pair by less than the parent's quartile distance
    (1.1 here) is not a claim."""
    assert not ab_pairs.claim(BASE, [b - 1.0 for b in BASE], "lower")
    assert ab_pairs.claim(BASE, [b - 1.2 for b in BASE], "lower")
    assert ab_pairs.claim(BASE, [b + 1.2 for b in BASE], "higher")


def test_no_pairs_no_claim():
    assert not ab_pairs.claim([], [], "lower")
