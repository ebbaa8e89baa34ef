#!/usr/bin/env python3
"""Interleaved A/B pairs of the repo benchmark between two checkouts.

    python3 tools/ab_pairs.py BASE_DIR CHANGE_DIR --workload NAME \\
        [--seeds 0 1 2 ...] [extra run.py options, e.g. --seconds 8]

For each seed, runs ``benchmarks/e2e/run.py`` once in each checkout (for
example a ``git worktree`` of the parent and the working tree), swapping
which side runs first every pair so slow drift of the machine hits both
sides alike.  Then prints, per metric the runs printed (the end-to-end
metrics, or the per-layer ones with ``--trace 1``), each side's median
and quartiles, how many pairs the change won (ties count for neither
side; the better direction comes from BASE_DIR's ``BENCHMARK.json``),
whether that is a claimable gain (:func:`claim`) and, for an end-to-end
metric, the no-regression verdict against its ``bound``
(:func:`verdict`); and whether the ``output_digest`` matched in every
pair.  With ``--trace 1``, when the two sides' ``missing_trace_targets``
differ (a refactor dropped or renamed a span target) both lists are
printed.
A run that fails stops the tool with that run's stderr.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, extra):
    cmd = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
           "--seed", str(seed), *extra]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed in {checkout} "
                 f"(exit {done.returncode}):\n{done.stderr}")
    out = done.stdout.strip().splitlines()
    info, result = json.loads(out[-2])["info"], json.loads(out[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    missing = tuple(info.get("missing_trace_targets", ()))
    return info["output_digest"], result["failed"], metrics, missing


def quartiles(values):
    """``[q1, median, q3]``; a single run is all three."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def wins(base, change, better):
    """Pairs the change won; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - b) > 0 for b, c in zip(base, change))


def claim(base, change, better):
    """The gain rule: the change won at least nine tenths of the pairs,
    and its median beats the parent's by more than the parent's own
    spread (the distance between its quartiles)."""
    if not base:
        return False
    sign = 1 if better == "higher" else -1
    q1, base_median, q3 = quartiles(base)
    gap = sign * (quartiles(change)[1] - base_median)
    return wins(base, change, better) >= 0.9 * len(base) and gap > q3 - q1


def verdict(base, change, better, bound):
    """The no-regression rule for one end-to-end metric, its ``bound`` a
    fraction of the parent's median: ``"worse"`` when the change's median
    is worse than the parent's by more than the bound; else
    ``"unresolved"`` when either side's quartile distance is wider than
    the bound, unless every change run beats every parent run; else
    ``"ok"``."""
    sign = 1 if better == "higher" else -1
    (bq1, base_median, bq3), (cq1, change_median, cq3) = (
        quartiles(base), quartiles(change))
    allowed = bound * abs(base_median)
    if sign * (change_median - base_median) < -allowed:
        return "worse"
    beats_all = (min(change) > max(base) if sign > 0
                 else max(change) < min(base))
    if max(bq3 - bq1, cq3 - cq1) > allowed and not beats_all:
        return "unresolved"
    return "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    args, extra = parser.parse_known_args()
    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    runs = {"base": [], "change": []}
    for i, seed in enumerate(args.seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args.workload, seed, extra))
        print(f"pair {i + 1}/{len(args.seeds)} (seed {seed}, {order[0]} first)",
              file=sys.stderr)
    same = sum(b[0] == c[0] for b, c in zip(runs["base"], runs["change"]))
    failed = [sum(r[1] for r in runs[side]) for side in ("base", "change")]
    print(f"{args.workload}: {len(args.seeds)} pairs, digest equal in {same}, "
          f"failed operations base {failed[0]} / change {failed[1]}")
    missing = {side: sorted({t for r in runs[side] for t in r[3]})
               for side in ("base", "change")}
    if missing["base"] != missing["change"]:
        for side in ("base", "change"):
            print(f"missing_trace_targets {side}: {missing[side] or 'none'}")
    print(f"{'metric':32} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30}  change won-tied-lost  claim  verdict")
    every_run = runs["base"] + runs["change"]
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        name, better, bound = entry["name"], entry["better"], entry.get("bound")
        if not all(name in r[2] for r in every_run):
            continue
        base = [r[2][name] for r in runs["base"]]
        change = [r[2][name] for r in runs["change"]]
        won = wins(base, change, better)
        ties = sum(c == b for b, c in zip(base, change))
        cols = []
        for values in (base, change):
            q1, med, q3 = quartiles(values)
            cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        record = f"{won}-{ties}-{len(base) - won - ties}"
        print(f"{name:32} {cols[0]:>30} {cols[1]:>30}  {record:>20}  "
              f"{'yes' if claim(base, change, better) else 'no':>5}  "
              f"{'-' if bound is None else verdict(base, change, better, bound)}")


if __name__ == "__main__":
    main()
