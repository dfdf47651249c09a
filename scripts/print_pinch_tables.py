#!/usr/bin/env python3
"""Print the pinch sequence table for each family member up to a given n.

The chains come from one cli.member_table, which builds both families'
chains, so --family picks which of its two lists to print.
A --max-n above VERIFY_MAX_N (3000), the verify bound, is refused with exit
code 2: the tables grow quadratically in it, to some 2e10 knots at 100000.
Any other error, such as a bad run in a chain, is internal and exits with
code 3.

Example:
    python3 scripts/print_pinch_tables.py --max-n 8
    python3 scripts/print_pinch_tables.py --family J --max-n 12
"""

import argparse
import sys

from pinchcalc.cli import VERIFY_MAX_N, member_table


def print_table(entries: list) -> None:
    """Print one line per (fid, seq) entry of a member_table list."""
    for fid, seq in entries:
        chain = " -> ".join(f"({p},{q})" for p, q in seq.knots())
        print(f"{fid} = {chain}   [{seq.pinch_number} pinches]")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--family", choices=["K", "J", "both"], default="both")
    ap.add_argument("--max-n", type=int, default=5)
    args = ap.parse_args()
    if args.max_n > VERIFY_MAX_N:
        ap.error(f"max_n {args.max_n} is over the verify bound {VERIFY_MAX_N}")
    families = ["K", "J"] if args.family == "both" else [args.family]
    try:
        table = member_table(args.max_n)
        for fam in families:
            print_table(table["KJ".index(fam)])
            print()
    except BrokenPipeError:
        raise  # a reader that closed the pipe early; no fault of the tables
    except Exception as exc:
        message = str(exc) or type(exc).__name__
        print(f"print_pinch_tables.py: internal error: {message}", file=sys.stderr)
        raise SystemExit(3)


if __name__ == "__main__":
    main()
