#!/usr/bin/env python3
"""Measure the chains of random coprime pairs, width by width.

For each width of the `queries` workload, draws random pairs as the
workload draws them and prints the 25th, 50th, 90th and 98th percentiles
of their pinch numbers, and what the workload leaves out: the share of
pairs above 1.1 times the 98th percentile of work (the sum over a chain's
moves of the bit lengths of p and q) and the share of all work those pairs
hold.  Then it prints the width's line of PAIR_TARGETS in workloads.py:
each work percentile with the median pinch number of the pairs within
WORK_WINDOW of it.

    python3 perfbench/quantiles.py            # 10000 pairs a width
    python3 perfbench/quantiles.py --pairs 500

Chains with more than --cap work are counted at the cap, so the share of
the left-out tail is a lower bound.
"""

import argparse
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WIDTHS, WORK_WINDOW, chain_size, random_pair  # noqa: E402

LEVELS = (25, 50, 90, 98)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10000)
    ap.add_argument("--cap", type=int, default=10**9)
    args = ap.parse_args()
    for width in WIDTHS:
        rng = random.Random(f"quantiles:{width}")
        sizes = [chain_size(*random_pair(rng, width), args.cap) or (None, args.cap)
                 for _ in range(args.pairs)]
        works = sorted(w for _, w in sizes)
        moves = sorted(n for n, _ in sizes if n is not None)
        work_at = {q: works[q * args.pairs // 100] for q in LEVELS}
        moves_at = {q: moves[q * len(moves) // 100] for q in LEVELS}
        typical = {q: statistics.median_low(
            n for n, w in sizes if n is not None
            and abs(w - work_at[q]) <= WORK_WINDOW * work_at[q]) for q in LEVELS}
        above = [w for w in works if w > 1.1 * work_at[LEVELS[-1]]]
        print(f"{width:>3} bits: pinch number {moves_at}; above 1.1 x p98 "
              f"work: {len(above) / args.pairs:.1%} of pairs, "
              f"{sum(above) / sum(works):.1%} of work; longest pinch number "
              f"{moves[-1]}; {works.count(args.cap)} at the cap")
        targets = {q: (work_at[q], typical[q]) for q in LEVELS}
        print(f"    {width}: {targets},")


if __name__ == "__main__":
    main()
