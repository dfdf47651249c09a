#!/usr/bin/env python3
"""Exhaustively check pinch sequence termination against the iteration cap.

Sweeps every coprime pair 2 <= p <= q <= limit with a memoized engine and
reports any pair whose sequence length exceeds min(p, q) // 2 + 1.  Memory
grows quadratically with the limit (about 50 MB at 5000); a limit above 23169,
whose table would pass 1 GiB, is refused with exit code 2.

Example:
    python3 scripts/termination_scan.py --limit 5000
"""

import argparse
import time

from pinchcalc.pinch import sweep_termination


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=5000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        checked, violations = sweep_termination(args.limit)
    except ValueError as exc:
        ap.error(str(exc))
    elapsed = time.perf_counter() - t0

    print(f"coprime pairs checked: {checked} (2 <= p <= q <= {args.limit})")
    print(f"cap violations: {len(violations)}")
    for p, q, length, cap in violations[:20]:
        print(f"  ({p},{q}): length {length} > cap {cap}")
    print(f"elapsed: {elapsed:.1f}s")
    raise SystemExit(1 if violations else 0)


if __name__ == "__main__":
    main()
