#!/usr/bin/env python3
"""Break the benchmark's set-up probe (``setup_s``) down by layer.

    python3 tools/coldstart.py [CHECKOUT ...] [--workload NAME ...] \\
        [--runs N] [--seed S] [--scale full|tiny]

``setup_s`` is the time from just before ``import repro`` to the first
decoded token of a workload's first request, measured in a fresh
interpreter (``benchmarks/e2e/run.py``'s ``probe_setup``).  This tool
runs the same body in N fresh ``python -X importtime`` interpreters per
workload and checkout and prints the medians of

* the import ms of each ``repro`` package (``repro.core``,
  ``repro.serving``, ...; each module's own time, rolled up by package),
* the import ms of everything else (stdlib and third party) loaded by
  the same ``import``,
* the wall ms of that ``import`` and of the first token after it, and
  the import ms of modules first loaded inside the first token.

The child imports ``benchmarks/e2e/run.py`` of the checkout (which pins
the BLAS threads and puts ``src/`` on the path, as the probe's own
interpreter does) and then follows ``probe_setup`` step by step, so it
starts from the same loaded modules.  Imports are timed by
``-X importtime``, which adds its own overhead: compare checkouts with
each other, not with ``setup_s``.  With several checkouts (for example a
``git clone`` of the parent and the working tree) their runs interleave,
swapping the order every run.  The environment is passed through
unchanged (``PYTHONDONTWRITEBYTECODE`` included): it is part of what
the probe measures.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

TOOLS = os.path.dirname(os.path.abspath(__file__))
MARKS = ("coldstart: import", "coldstart: first token")
TOTALS = ("import total (wall)", "first token (wall)", "  imports inside it")

CHILD = f"""
import json, os, sys, time
checkout, workload, seed, scale = sys.argv[1:]
sys.path.insert(0, os.path.join(checkout, "benchmarks", "e2e"))
import run
spec = run.e2e_inputs.SPECS[scale][workload]
first = run.e2e_inputs.Workload(spec, int(seed)).request(0)
print({MARKS[0]!r}, file=sys.stderr, flush=True)
start = time.perf_counter()
import e2e_drive
imported = time.perf_counter()
print({MARKS[1]!r}, file=sys.stderr, flush=True)
e2e_drive.first_token(spec, first)
done = time.perf_counter()
print(json.dumps([1e3 * (imported - start), 1e3 * (done - imported)]))
"""


def layer(module: str) -> str:
    """``repro.hw.serving`` -> ``repro.hw``; a non-repro module -> ``other``."""
    parts = module.split(".")
    return ".".join(parts[:2]) if parts[0] == "repro" else "other"


def parse_importtime(stderr: str):
    """Per phase (the import, the first token), ms of each module's own
    import time rolled up by :func:`layer`."""
    phases = [defaultdict(float), defaultdict(float)]
    phase = None
    for line in stderr.splitlines():
        if line in MARKS:
            phase = MARKS.index(line)
        elif phase is not None and line.startswith("import time:"):
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                phases[phase][layer(name.strip())] += int(own) / 1e3
    return phases


def probe(checkout: str, workload: str, seed: int, scale: str) -> dict:
    """One fresh interpreter: ``{row: ms}`` for the report."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", CHILD,
         os.path.abspath(checkout), workload, str(seed), scale],
        capture_output=True, text=True, timeout=300,
    )
    if done.returncode != 0:
        sys.exit(f"probe of {workload} in {checkout} failed "
                 f"(exit {done.returncode}):\n{done.stderr[-4000:]}")
    import_ms, first_ms = json.loads(done.stdout.strip().splitlines()[-1])
    at_import, in_first = parse_importtime(done.stderr)
    return {**{f"import {name}": ms for name, ms in at_import.items()},
            **dict(zip(TOTALS, (import_ms, first_ms, sum(in_first.values()))))}


def report(workload: str, labels, rows) -> None:
    """Print each row's median per checkout (a missing row reads 0)."""
    layers = {n for side in rows for r in side for n in r} - set(TOTALS)
    names = [*sorted(layers, key=lambda n: (n == "import other", n)), *TOTALS]
    print(f"\n{workload} (median ms of {len(rows[0])} runs)")
    print(f"{'':28}" + "".join(f"{label:>14}" for label in labels))
    for name in names:
        cells = [statistics.median(r.get(name, 0.0) for r in side) for side in rows]
        print(f"{name:28}" + "".join(f"{c:14.1f}" for c in cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", default=[os.path.dirname(TOOLS)])
    parser.add_argument("--workload", nargs="+", dest="workloads")
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.workloads is None:
        with open(os.path.join(args.checkouts[0], "BENCHMARK.json")) as f:
            args.workloads = [w["name"] for w in json.load(f)["workloads"]]
    labels = [chr(ord("A") + i) for i in range(len(args.checkouts))]
    for label, checkout in zip(labels, args.checkouts):
        print(f"{label}: {os.path.abspath(checkout)}")
    for workload in args.workloads:
        rows = [[] for _ in args.checkouts]
        for i in range(args.runs):
            order = list(range(len(args.checkouts)))
            if i % 2:
                order.reverse()
            for side in order:
                rows[side].append(
                    probe(args.checkouts[side], workload, args.seed, args.scale)
                )
        report(workload, labels, rows)


if __name__ == "__main__":
    main()
