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


# the no-regression verdict: every end-to-end metric of BENCHMARK.json
# has a ``bound``, a fraction of the parent's median
def test_a_median_worse_by_more_than_the_bound_is_worse():
    # parent median 10.9: a 25 % bound allows down to 8.175 (higher
    # is better) or up to 13.625 (lower is better)
    assert ab_pairs.verdict(BASE, [b * 0.7 for b in BASE], "higher", 0.25) == "worse"
    assert ab_pairs.verdict(BASE, [b * 1.3 for b in BASE], "lower", 0.25) == "worse"
    assert ab_pairs.verdict(BASE, [b * 1.3 for b in BASE], "higher", 0.25) == "ok"


def test_a_tight_pair_inside_the_bound_is_ok():
    # quartile distance 1.1 is ~10 % of the median: inside a 25 % bound
    assert ab_pairs.verdict(BASE, [b + 0.5 for b in BASE], "lower", 0.25) == "ok"
    assert ab_pairs.verdict(BASE, BASE, "higher", 0.25) == "ok"


def test_a_spread_wider_than_the_bound_is_unresolved():
    """setup_s readings like a refused bit-identical change's: parent
    0.190-0.218 s, change median 0.228 s (8 % worse, inside the 25 %
    bound) but its quartile distance 0.085 s, 40 % of the parent's
    median."""
    base = [0.190, 0.195, 0.200, 0.205, 0.210, 0.212, 0.214, 0.216, 0.218, 0.218]
    change = [0.185, 0.190, 0.195, 0.205, 0.226, 0.230, 0.260, 0.275, 0.290, 0.300]
    assert ab_pairs.verdict(base, change, "lower", 0.25) == "unresolved"
    assert ab_pairs.verdict(base, change, "lower", 0.5) == "ok"
    # the parent's own spread counts too
    assert ab_pairs.verdict(change, base, "lower", 0.25) == "unresolved"


def test_beating_every_parent_run_resolves_a_wide_spread():
    change = [b - 5.0 for b in BASE]
    assert ab_pairs.verdict(BASE, change, "lower", 0.05) == "ok"
    change[0] = max(BASE)  # one change run no better than the parent's best
    assert ab_pairs.verdict(BASE, change, "lower", 0.05) == "unresolved"
