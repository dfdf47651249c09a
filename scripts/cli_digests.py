#!/usr/bin/env python3
"""Print one sha256 per CLI command over a fixed, seeded set of invocations.

Each invocation runs in process through cli_main, once in text and once
with --json; its argv, exit code, stdout and stderr all feed the digest of
its command.  The set: the knot commands on coprime pairs of 8 to 256 bits
(chains of at most MAX_MOVES moves) and on every pair in [-1, 11]^2, the
member commands on K_n and J_n for n <= 29 and jvc on their knots (one run
of 2n negative moves each), both tangle commands on a few fractions, and
verify in every mode at --max-n 1, 2, 5 and 40.  Two checkouts print the
same lines exactly when their outputs are identical:

    diff <(PYTHONPATH=old/src python3 scripts/cli_digests.py) \\
         <(PYTHONPATH=src python3 scripts/cli_digests.py)

Compare two checkouts under one interpreter: argparse words its usage
errors differently from one Python patch release to another, so the
verify digest depends on the interpreter.  The first line names it.
"""

import argparse
import hashlib
import io
import os
import platform
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from pinchcalc.cli import COMMANDS, MODES, cli_main
from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import TorusKnotParams, pinch_number

SEED = 20201101
WIDTHS = (8, 16, 32, 64, 128, 256)
PAIRS_PER_WIDTH = 20
# pinch-seq prints every move; longer chains are skipped
MAX_MOVES = 20_000
KNOT_COMMANDS = ("pinch-move", "pinch-seq", "pinch-number", "jvc")
MEMBER_COMMANDS = ("family", "surgery-knot", "report")


def random_pairs(rng):
    """PAIRS_PER_WIDTH coprime pairs per bit width, both coordinates of that width."""
    pairs = []
    for bits in WIDTHS:
        found = 0
        while found < PAIRS_PER_WIDTH:
            p, q = (rng.getrandbits(bits) | 1 << (bits - 1) for _ in range(2))
            if gcd(p, q) == 1 and pinch_number(TorusKnotParams(p, q)) <= MAX_MOVES:
                pairs.append((p, q))
                found += 1
    return pairs


def invocations():
    """(command, argv) for every invocation, in a fixed order."""
    rng = random.Random(SEED)
    grid = [(p, q) for p in range(-1, 12) for q in range(-1, 12)]
    for pair in grid + random_pairs(rng):
        for command in KNOT_COMMANDS:
            yield command, [command, *map(str, pair)]
    for family in "KJ":
        for n in range(30):
            for command in MEMBER_COMMANDS:
                yield command, [command, family, str(n)]
            if n:
                knot = family_knot(FamilyId(family, n))
                yield "jvc", ["jvc", str(knot.p), str(knot.q)]
    for num, den in ((2, -9), (-4, 25), (4, 3), (1, 3), (5, 3), (0, 1), (1, 0)):
        yield "tangle cf", ["tangle", "cf", str(num), str(den)]
    for matrix in ((1, 0, -7, 1), (2, 1, 1, 1), (1, 0, 0, 2)):
        for num, den in ((4, 3), (1, 7), (1, 0)):
            yield "tangle apply", ["tangle", "apply", *map(str, (*matrix, num, den))]
    for mode in (*MODES, "bogus"):
        for max_n in (1, 2, 5, 40):
            yield "verify", ["verify", mode, "--max-n", str(max_n)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter
                            ).parse_args()
    # argparse wraps usage errors to the terminal width
    os.environ["COLUMNS"] = "80"
    digests = {command: hashlib.sha256() for command in COMMANDS}
    counts = dict.fromkeys(COMMANDS, 0)
    print(f"python {platform.python_version()}")
    for command, argv in invocations():
        for form in (argv, [*argv, "--json"]):
            code, out, err = run(form)
            record = "\0".join([" ".join(form), str(code), out, err, ""])
            digests[command].update(record.encode())
            counts[command] += 1
    for command, digest in digests.items():
        print(f"{digest.hexdigest()}  {command}  ({counts[command]} calls)")


if __name__ == "__main__":
    main()
