#!/usr/bin/env python3
"""Print one sha256 per CLI command over a fixed, seeded set of invocations.

Each invocation runs in process through cli_main, once in text and once
with --json; its argv, exit code, stdout and stderr all feed the digest of
its command.  The set: the knot commands on coprime pairs of 8 to 256 bits
(chains of at most MAX_MOVES moves) and on every pair in [-1, 11]^2, the
member commands on K_n and J_n for n <= 29 and jvc on their knots (one run
of 2n negative moves each), the member commands also on seeded K_n and J_n
of 64 to 256 bits (but not jvc, which would print 2n signs), tangle cf on a
few small fractions, on seeded fractions of 64 to 256 bits and on seeded
fractions near +-1, whose expansions hold blocks of thousands of +-2
entries, tangle apply on a few fractions, and verify in every mode at
--max-n 1, 2, 5, 40, 300 and cli.VERIFY_MAX_N (3000), the verify bound.
The line "verify usage" digests verify with the mode "bogus" at those
bounds, argparse's usage error.  The line "argv forms" digests valid argv
in other forms than command first and flags last: a flag before the command
or between tangle and its op, repeated flags, ints written +5, 007, 1_0 and
-0, and verify with a flag first, --max-n before the mode, --max-n=3 and
the abbreviation --max.  The line "usage" digests each command but verify
with a bad int, one argument too few or too many, a bad family, the
abbreviation --js, "--" and -h: argv that only argparse reads.  Two more
lines digest the pinch tables that print_pinch_tables.py prints for K and J
at --max-n 12 (each chain from PinchSequence.knots()), and
repr(sweep_termination(3000)): the pairs the termination scan checks and
its violations.  Two checkouts print the same lines exactly when their
outputs are identical:

    diff <(PYTHONPATH=old/src python3 scripts/cli_digests.py) \\
         <(PYTHONPATH=src python3 scripts/cli_digests.py)

Compare two checkouts under one interpreter: argparse words its usage
errors and help differently from one Python patch release to another, so
the "verify usage" and "usage" digests depend on the interpreter.  The
first line names it.
"""

import argparse
import hashlib
import io
import os
import platform
import random
from contextlib import redirect_stderr, redirect_stdout
from math import gcd

from pinchcalc.cli import (
    COMMANDS, KNOT, MEMBER, MODES, VERIFY_MAX_N, cli_main, member_table,
)
from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import TorusKnotParams, pinch_number, sweep_termination
from print_pinch_tables import print_table

SEED = 20201101
WIDTHS = (8, 16, 32, 64, 128, 256)
PAIRS_PER_WIDTH = 20
# pinch-seq prints every move; longer chains are skipped
MAX_MOVES = 20_000
# the commands that take a knot, and those that take a family member
KNOT_COMMANDS = [name for name, entry in COMMANDS.items() if entry[2] is KNOT]
MEMBER_COMMANDS = [name for name, entry in COMMANDS.items() if entry[2] is MEMBER]
MEMBER_WIDTHS = (64, 128, 256)
MEMBERS_PER_WIDTH = 3
CF_WIDTHS = (64, 128, 256)
FRACTIONS_PER_WIDTH = 8
# a fraction near +-1 is (den - g)/den with den // g about this long a block
BLOCK_LENGTHS = (1000, 5000)
# each command but verify in its canonical form, with valid arguments
CANONICAL = {
    "pinch-move": ["pinch-move", "4", "9"],
    "pinch-seq": ["pinch-seq", "8", "25"],
    "pinch-number": ["pinch-number", "20", "81"],
    "family": ["family", "K", "3"],
    "surgery-knot": ["surgery-knot", "J", "2"],
    "tangle cf": ["tangle", "cf", "2", "-9"],
    "tangle apply": ["tangle", "apply", "1", "0", "-7", "1", "4", "3"],
    "jvc": ["jvc", "8", "9"],
    "report": ["report", "K", "1"],
}
ARGV_FORMS = (
    ["--json", "pinch-move", "4", "9"],
    ["--quiet", "family", "K", "3"],
    ["tangle", "--json", "cf", "2", "-9"],
    ["--quiet", "tangle", "--json", "apply", "1", "0", "-7", "1", "4", "3"],
    ["report", "J", "--json", "2", "--json"],
    ["pinch-seq", "--quiet", "--json", "8", "25"],
    ["pinch-number", "+5", "007"],
    ["surgery-knot", "K", "007"],
    ["family", "J", "+5"],
    ["tangle", "apply", "1", "0", "1_0", "1", "4", "3"],
    ["tangle", "apply", "1", "-0", "-7", "1", "4", "3"],
    ["jvc", "1_0", "+11"],
    ["--json", "verify", "tables"],
    ["--quiet", "verify", "tables"],
    ["verify", "--max-n", "3", "all"],
    ["verify", "all", "--max-n=3", "--json"],
    ["verify", "--max", "3", "corollaries"],
    ["verify", "tables", "--json", "--json"],
)


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


def random_fractions(rng):
    """Per width in CF_WIDTHS, FRACTIONS_PER_WIDTH fractions num/den of that
    width with 0 < |num| < den, and one near 1 and one near -1 per block
    length."""
    fractions = []
    for bits in CF_WIDTHS:
        for _ in range(FRACTIONS_PER_WIDTH):
            den = rng.getrandbits(bits) | 1 << (bits - 1)
            fractions.append((rng.choice((1, -1)) * rng.randrange(1, den), den))
        for length in BLOCK_LENGTHS:
            den = rng.getrandbits(bits) | 1 << (bits - 1)
            g = den // rng.randint(length, 2 * length)
            fractions += [(den - g, den), (g - den, den)]
    return fractions


def wide_members(rng):
    """MEMBERS_PER_WIDTH values of n per width in MEMBER_WIDTHS, each of that width."""
    return [rng.getrandbits(bits) | 1 << (bits - 1)
            for bits in MEMBER_WIDTHS for _ in range(MEMBERS_PER_WIDTH)]


def invocations():
    """(digest line, argv) for every invocation, in a fixed order."""
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
    # a generator of their own, so the pairs and fractions stay as they were
    for n in wide_members(random.Random(SEED)):
        for family in "KJ":
            for command in MEMBER_COMMANDS:
                yield command, [command, family, str(n)]
    small = [(2, -9), (-4, 25), (4, 3), (1, 3), (5, 3), (0, 1), (1, 0)]
    for num, den in small + random_fractions(rng):
        yield "tangle cf", ["tangle", "cf", str(num), str(den)]
    for matrix in ((1, 0, -7, 1), (2, 1, 1, 1), (1, 0, 0, 2)):
        for num, den in ((4, 3), (1, 7), (1, 0)):
            yield "tangle apply", ["tangle", "apply", *map(str, (*matrix, num, den))]
    for mode in (*MODES, "bogus"):
        for max_n in (1, 2, 5, 40, 300, VERIFY_MAX_N):
            line = "verify" if mode in MODES else "verify usage"
            yield line, ["verify", mode, "--max-n", str(max_n)]
    for argv in ARGV_FORMS:
        yield "argv forms", argv
    for command, argv in CANONICAL.items():
        words = len(command.split())
        yield from (("usage", form) for form in (
            [*argv[:-1], "x"], argv[:-1], [*argv, "3"], [*argv, "--js"],
            [*argv[:words], "--", *argv[words:]], [*argv[:words], "-h"]))
        if command in MEMBER_COMMANDS:
            yield "usage", [command, "L", argv[-1]]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


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
    lines = [*COMMANDS, "verify usage", "argv forms", "usage"]
    digests = {line: hashlib.sha256() for line in lines}
    counts = dict.fromkeys(lines, 0)
    print(f"python {platform.python_version()}")
    for line, argv in invocations():
        for form in (argv, [*argv, "--json"]):
            code, out, err = run(form)
            record = "\0".join([" ".join(form), str(code), out, err, ""])
            digests[line].update(record.encode())
            counts[line] += 1
    for line, digest in digests.items():
        print(f"{digest.hexdigest()}  {line}  ({counts[line]} calls)")
    tables = io.StringIO()
    with redirect_stdout(tables):
        for entries in member_table(12):
            print_table(entries)
    print(f"{sha256(tables.getvalue())}  print_pinch_tables.py --max-n 12")
    print(f"{sha256(repr(sweep_termination(3000)))}  sweep_termination(3000)")


if __name__ == "__main__":
    main()
