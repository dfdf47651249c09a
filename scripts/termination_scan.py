#!/usr/bin/env python3
"""Exhaustively check pinch sequence termination against the iteration cap.

Sweeps every coprime pair 2 <= p < q <= limit with one walk of the
Stern-Brocot tree and reports any pair whose sequence length exceeds
min(p, q) // 2 + 1, then the pairs checked per second and the peak RSS.
Memory grows linearly with the limit and time quadratically.  A limit above
SWEEP_MAX_LIMIT (23169, about 1.6e8 pairs) is refused with exit code 2,
because of the time it would take.

Example:
    python3 scripts/termination_scan.py --limit 5000
"""

import argparse
import resource
import sys
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
    print(f"pairs per second: {checked / max(elapsed, 1e-9):,.0f}")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss counts bytes there
        rss_kib /= 1024
    print(f"peak RSS: {rss_kib / 1024:.1f} MiB")
    raise SystemExit(1 if violations else 0)


if __name__ == "__main__":
    main()
