"""Alternating parent/change pairs of the benchmark, and their summary.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload extremal \
        --seed 7 --seconds 20 --pairs 10

Each directory is a checkout root holding ``perfbench/run.py``.  Pair i runs
``perfbench/run.py`` once in each directory, the parent first in even pairs
and the change first in odd ones, so that a drift of the machine's speed
favours neither side.  Every result line is printed as it arrives, tagged
with its pair and side.  The summary gives, for each end-to-end metric of
the change's ``BENCHMARK.json``, each side's first quartile, median and third
quartile, the change's wins (pairs where it is better, in the metric's own
direction), and whether the gap between the medians exceeds the parent's
interquartile range.  A run that is not correct or has failed ops is named.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], spec: list[dict]) -> list[str]:
    """Summary lines for (parent, change) result objects, one pair each, over
    the end-to-end metrics ``spec`` (BENCHMARK.json's ``end_to_end`` list)."""
    lines = []
    for i, pair in enumerate(pairs):
        for side, result in zip(SIDES, pair):
            if not result["correct"] or result["failed"]:
                lines.append(f"pair {i} {side}: correct {result['correct']}, "
                             f"failed {result['failed']}")
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        parent, change = ([p[s]["metrics"][name]["value"] for p in pairs]
                          for s in range(2))
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = quartiles(parent), quartiles(change)
        gain = (cmed - pmed) if higher else (pmed - cmed)
        moved = f"{(cmed - pmed) / pmed:+.1%}" if pmed else "n/a"
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better): "
            f"parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}], "
            f"change {cmed:.6g} [{cq1:.6g}, {cq3:.6g}] ({moved}), "
            f"wins {wins}/{len(pairs)}, "
            f"median gain {'exceeds' if gain > pq3 - pq1 else 'within'} parent IQR"
        )
    return lines


def run_once(root: str, workload: str, seed: int, seconds: float) -> str:
    """The result line (the last line of stdout) of one benchmark run in ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip().splitlines()[-1]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="checkout root of the parent commit")
    ap.add_argument("change", help="checkout root of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        results = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            line = run_once(roots[side], args.workload, args.seed, args.seconds)
            print(f"pair {i} {side}: {line}", flush=True)
            results[side] = json.loads(line)
        pairs.append((results["parent"], results["change"]))
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s:")
    for line in summarize(pairs, spec):
        print("  " + line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
