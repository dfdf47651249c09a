"""The benchmark's workloads: seeded inputs and output checks.

A workload is a list of operations made from the seed alone, so one seed
always gives the same inputs.  Each operation is one top-level call into
pinchcalc: `sweep_termination` for `sweep`, and in-process
`cli_main([..., "--json"])` with stdout captured for `families` and
`queries`.  The checks recompute what they compare with their own
arithmetic (Python's `pow`, `gcd` and `fractions.Fraction`, and the
paper's closed forms) and never call pinchcalc.

perfbench/README.md says why each workload was chosen and which layers it
should and should not move.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Callable

from pinchcalc import cli, pinch

SWEEP_LIMIT = 1400
FAMILIES_MAX_N = 120
WIDTHS = (16, 32, 64, 128, 256)
# Targets for the queried pairs: for random coprime pairs of each width
# (p even, q odd, both of exactly w bits), the 25th, 50th, 90th and 98th
# percentiles of their work, each with the median pinch number of the
# pairs whose work lies within WORK_WINDOW of it, as
# `python3 perfbench/quantiles.py` measures them over 10000 pairs a width.
# Work is the sum over a chain's moves of the bit lengths of p and q (see
# chain_size); the program's time follows it, and its memory follows the
# pinch number.  Each pass queries one pair at each (width, percentile),
# drawn at random among the pairs within WORK_WINDOW of the work and
# MOVES_WINDOW of the pinch number, so seeds differ in which pairs are
# drawn, not in how much work they are.  The distribution has a heavy
# tail: the 2% of pairs above 1.1 x p98 hold 37-53% of all work, with
# pinch numbers up to about 10^6.  That tail is left out so that no
# single input sets a whole run; perfbench/README.md gives the shares.
PAIR_TARGETS = {
    16: {25: (192, 11), 50: (272, 15), 90: (921, 43), 98: (3702, 153)},
    32: {25: (830, 25), 50: (1168, 34), 90: (4050, 99), 98: (16185, 394)},
    64: {25: (3717, 58), 50: (5152, 77), 90: (16644, 216), 98: (66870, 804)},
    128: {25: (16903, 134), 50: (22871, 174), 90: (65959, 430), 98: (289930, 1563)},
    256: {25: (79151, 316), 50: (104437, 404), 90: (274921, 964), 98: (1015229, 3006)},
}
WORK_WINDOW = 0.05
MOVES_WINDOW = 0.25
REPORT_TARGETS = (8, 32, 128)
QUERY_PASSES = 2
DOC_KEYS = ["schema_version", "command", "inputs", "results", "status"]
STEP_KEYS = ["from", "to", "t", "h", "sign"]


@dataclass
class Op:
    """One call into the program and the check of what it printed."""

    kind: str
    argv: list
    call: Callable[[], tuple]
    check: Callable[[object], bool]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.cli_main(argv)
    return code, out.getvalue()


def cli_op(kind, args, check):
    argv = [*kind.split(), *map(str, args), "--json"]

    def checked(doc):
        return (
            list(doc) == DOC_KEYS
            and doc["command"] == kind
            and doc["status"] == "ok"
            and check(doc["results"])
        )

    return Op(kind, argv, lambda: run_cli(argv), checked)


# ---------------------------------------------------------------------------
# independent arithmetic


def totient_pairs(limit):
    """Sum of phi(q) - 1 over 3 <= q <= limit: coprime pairs 2 <= p < q."""
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return sum(phi[q] - 1 for q in range(3, limit + 1))


def sign_of(p, q, t, h):
    return "+" if p - 2 * t > 0 or (p == 2 * t and q - 2 * h > 0) else "-"


def step_ok(step, p, q):
    """The witness identity, ranges, target and sign of one move on T(p, q)."""
    t, h = step["t"], step["h"]
    return (
        list(step)[:5] == STEP_KEYS
        and step["from"] == [p, q]
        and 0 <= t < p
        and 0 <= h < q
        and p * h - q * t == 1
        and step["to"] == [abs(p - 2 * t), abs(q - 2 * h)]
        and step["sign"] == sign_of(p, q, t, h)
    )


def oracle_signs(p, q):
    """Signs along the chain of T(p, q), witnesses from pow(p, -1, q)."""
    signs = []
    while p > 1 and q > 1:
        h = pow(p, -1, q)
        t = (p * h - 1) // q
        signs.append(sign_of(p, q, t, h))
        p, q = abs(p - 2 * t), abs(q - 2 * h)
    return signs


def bit_sum(x, d, k):
    """Sum of the bit lengths of x, x - d, ..., x - (k - 1)d, all positive."""
    total = 0
    while k > 0:
        b = x.bit_length()
        n = min(k, (x - (1 << (b - 1))) // d + 1)
        total += n * b
        x -= n * d
        k -= n
    return total


def chain_size(p, q, limit):
    """(pinch number, work) of T(p, q), or None once work exceeds limit.

    The work of a chain is the sum over its moves of the bit lengths of p
    and q, and the program's time per call is close to proportional to it;
    the pinch number alone leaves the time free to vary fivefold between
    pairs of the same width.

    Walks whole runs at once instead of single moves.  Along a positive run
    the witness (t, h) stays the same and (p, q) drops by 2(t, h) a move;
    along a negative run the complement (c, d) = (p - t, q - h) stays the
    same and (p, q) drops by 2(c, d).  A run goes on while that witness is
    still the smallest inverse and the sign holds, which gives its length
    in closed form.  Only used to choose inputs; outputs are checked
    against oracle_signs.
    """
    moves = work = 0
    while p > 1 and q > 1:
        h = pow(p, -1, q)
        t = (p * h - 1) // q
        if p > 2 * t:
            a, b = t, h
            k = min((p - 1) // (2 * t), (q + h - 1) // (2 * h))
        else:
            a, b = p - t, q - h
            k = min(p // (2 * a), (q + b - 1) // (2 * b))
        work += bit_sum(p, 2 * a, k) + bit_sum(q, 2 * b, k)
        if work > limit:
            return None
        p, q = p - 2 * k * a, q - 2 * k * b
        moves += k
    return moves, work


def cf_value(coeffs):
    """1/(a1 + 1/(a2 + ... + 1/ak)) as an exact Fraction."""
    x = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        x = a + 1 / x
    return 1 / x


def reduced(num, den):
    """[num, den] in lowest terms, den >= 0, and [1, 0] for the infinite slope."""
    if den == 0:
        return [1, 0]
    g = gcd(num, den)
    num, den = num // g, den // g
    return [-num, -den] if den < 0 else [num, den]


# ---------------------------------------------------------------------------
# sweep


def sweep_op(limit):
    expected = [totient_pairs(limit), []]

    def call():
        checked, violations = pinch.sweep_termination(limit)
        return 0, json.dumps([checked, violations]) + "\n"

    return Op("sweep", ["sweep_termination", str(limit)], call,
              lambda doc: doc == expected)


def sweep_ops(seed):
    return [sweep_op(SWEEP_LIMIT)]


def sweep_warmup(seed):
    return [sweep_op(100)]


# ---------------------------------------------------------------------------
# families


def verify_op(max_n):
    expected = {
        "tables": {
            "K": {"matched": 5, "total": 5, "mismatches": []},
            "J": {"matched": 4, "total": 4, "mismatches": []},
        },
        "closed_form": {"checked": 2 * max_n - 1, "violations": []},
        "j_to_k": {"checked": max_n - 1, "violations": []},
        "k_independence": {"checked": max_n, "violations": []},
        "reports": {"checked": 2 * max_n - 1, "violations": []},
    }
    return cli_op("verify", ["all", "--max-n", max_n],
                  lambda r: r == expected)


def families_ops(seed):
    return [verify_op(FAMILIES_MAX_N)]


def families_warmup(seed):
    return [verify_op(10)]


# ---------------------------------------------------------------------------
# queries


def random_pair(rng, width):
    """A coprime pair of the given width, p even and q odd."""
    top = 1 << (width - 1)
    while True:
        p, q = rng.getrandbits(width) | top, rng.getrandbits(width) | top
        if (p ^ q) & 1 and gcd(p, q) == 1:
            return (p, q) if p % 2 == 0 else (q, p)


def draw_pair(rng, width, work, moves):
    """A random pair of the width whose work lies within WORK_WINDOW of work
    and whose pinch number lies within MOVES_WINDOW of moves."""
    lo = ceil((1 - WORK_WINDOW) * work)
    hi = floor((1 + WORK_WINDOW) * work)
    while True:
        p, q = random_pair(rng, width)
        size = chain_size(p, q, hi)
        if (size is not None and size[1] >= lo
                and abs(size[0] - moves) <= MOVES_WINDOW * moves):
            return p, q, oracle_signs(p, q)


def near(rng, target):
    return rng.randint(ceil(0.9 * target), floor(1.1 * target))


def pair_ops(p, q, signs):
    """pinch-number, pinch-seq and jvc on (p, q), pinch-move on (q, p).

    Each is held to the oracle's chain, so pinch-number equals the length
    of pinch-seq and jvc's signs equal pinch-seq's.
    """

    def seq_ok(r):
        cur, steps = [p, q], r["steps"]
        for step in steps:
            if min(cur) <= 1 or len(step) != 5 or not step_ok(step, *cur):
                return False
            cur = step["to"]
        return (
            list(r) == ["start", "steps", "pinch_number"]
            and r["start"] == [p, q]
            and min(cur) <= 1
            and r["pinch_number"] == len(steps)
            and [s["sign"] for s in steps] == signs
        )

    def number_ok(r):
        return r == {"start": [p, q], "pinch_number": len(signs)}

    def jvc_ok(r):
        neg = signs.count("-")
        return r == {"knot": [p, q], "signs": signs, "negative_count": neg,
                     "equals_pinch_minus_one": neg == 1}

    def move_ok(r):
        # the swapped orientation (q, p): odd first, even second
        return (len(r) == 7 and step_ok(r, q, p)
                and list(r)[5:] == ["p_minus_2t", "q_minus_2h"]
                and r["p_minus_2t"] == q - 2 * r["t"]
                and r["q_minus_2h"] == p - 2 * r["h"])

    return [
        cli_op("pinch-number", [p, q], number_ok),
        cli_op("pinch-seq", [p, q], seq_ok),
        cli_op("jvc", [p, q], jvc_ok),
        cli_op("pinch-move", [q, p], move_ok),
    ]


def tangle_cf_op(rng, width):
    den = rng.getrandbits(width) | (1 << (width - 1))
    while True:
        num = rng.randrange(1, den)
        if (num ^ den) & 1 and gcd(num, den) == 1:
            break
    num = rng.choice((num, -num))

    def ok(r):
        cf = r["cf"]
        return (list(r) == ["fraction", "cf"]
                and r["fraction"] == [num, den]
                and all(a != 0 and a % 2 == 0 for a in cf)
                and cf_value(cf) == Fraction(num, den))

    return cli_op("tangle cf", [num, den], ok)


def tangle_apply_op(rng, width):
    top = 1 << (width - 1)
    c = rng.getrandbits(width) | top
    while True:
        a = rng.getrandbits(width) | top
        if gcd(a, c) == 1:
            break
    a = rng.choice((a, -a))
    d = pow(a, -1, c)
    b = (a * d - 1) // c
    num, den = rng.getrandbits(width) - (top >> 1), rng.getrandbits(width) | 1

    def ok(r):
        return r == {"matrix": [[a, b], [c, d]], "fraction": reduced(num, den),
                     "image": reduced(a * num + b * den, c * num + d * den)}

    return cli_op("tangle apply", [a, b, c, d, num, den], ok)


def member_facts(family, n):
    eps = 1 if family == "K" else -1
    det = (2 * n + eps) ** 2
    return eps, [4 * n, det], [-2 * n, det], [-(2 * n + 2 * eps), -2 * n]


def family_op(family, n):
    _, knot, _, _ = member_facts(family, n)
    expected = {"family": family, "n": n, "knot": knot,
                "trivial": family == "J" and n == 1}
    return cli_op("family", [family, n], lambda r: r == expected)


def surgery_op(family, n):
    eps, knot, fraction, cf = member_facts(family, n)
    expected = {
        "family": family, "n": n,
        "tangle1": [1, 2 * (n + eps) + 1], "tangle2": [2 * n, 2 * n - 1],
        "normalized": fraction, "cf": cf, "determinant": knot[1],
        "slice_recognized": True,
    }
    return cli_op("surgery-knot", [family, n],
                  lambda r: r == expected and cf_value(cf) == Fraction(*fraction))


def report_op(family, n):
    _, knot, fraction, cf = member_facts(family, n)
    negatives = oracle_signs(*knot).count("-")
    expected = {
        "family": family, "n": n, "knot": knot, "pinch_number": 2 * n,
        "band_count": 2 * n - 1, "slice_fraction": fraction, "slice_cf": cf,
        "slice_recognized": True, "jvc_negative_count": negatives,
        "jvc_equals_pinch_minus_one": negatives == 1,
    }
    return cli_op("report", [family, n], lambda r: r == expected)


def queries_pass(seed, k):
    """One pass: the same mix of commands, widths and targets for every seed."""
    rng = random.Random(f"queries:{seed}:{k}")
    ops = []
    for width in WIDTHS:
        for work, moves in PAIR_TARGETS[width].values():
            ops += pair_ops(*draw_pair(rng, width, work, moves))
        ops += [tangle_cf_op(rng, width) for _ in range(2)]
        ops += [tangle_apply_op(rng, width) for _ in range(2)]
    for family in "KJ":
        for target in REPORT_TARGETS:
            ops.append(report_op(family, near(rng, target)))
            wide = rng.getrandbits(rng.choice(WIDTHS)) | 2
            ops.append(surgery_op(family, wide))
            ops.append(family_op(family, rng.choice((1, wide))))
    rng.shuffle(ops)
    return ops


def queries_ops(seed):
    return [op for k in range(QUERY_PASSES) for op in queries_pass(seed, k)]


def queries_warmup(seed):
    first = {}
    for op in queries_pass(seed, 0):
        first.setdefault(op.kind, op)
    return list(first.values())


# name -> (the run's operations, a short untimed warm-up), both from the seed
WORKLOADS = {
    "sweep": (sweep_ops, sweep_warmup),
    "families": (families_ops, families_warmup),
    "queries": (queries_ops, queries_warmup),
}
