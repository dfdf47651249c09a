#!/usr/bin/env python3
"""Print the pinch sequence table for each family member up to a given n.

Example:
    python3 scripts/print_pinch_tables.py --max-n 8
    python3 scripts/print_pinch_tables.py --family J --max-n 12
"""

import argparse

from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import pinch_sequence


def print_table(family: str, max_n: int) -> None:
    lo = 1 if family == "K" else 2
    for n in range(lo, max_n + 1):
        fid = FamilyId(family, n)
        seq = pinch_sequence(family_knot(fid))
        chain = " -> ".join(f"({p},{q})" for p, q in seq.knots())
        print(f"{fid} = {chain}   [{seq.pinch_number} pinches]")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=["K", "J", "both"], default="both")
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()
    families = ["K", "J"] if args.family == "both" else [args.family]
    for fam in families:
        print_table(fam, args.max_n)
        print()


if __name__ == "__main__":
    main()
