"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Expected pinch sequence rows live here as literal fixtures, independent of
the engine and of the CLI's own copy, so a regression in either is caught
against frozen data rather than recomputed output.
"""

import random
import time
from math import gcd, isqrt

from pinchcalc.arith import (
    NoEvenExpansionError,
    ReducedFraction,
    cf_evaluate,
    cf_even_expand,
)
from pinchcalc.cli import cli_main
from pinchcalc.criteria import jvc_criterion, sign_sequence
from pinchcalc.families import (
    FamilyId,
    closed_form_step,
    family_knot,
    verify_j_to_k,
    verify_k_independence,
)
from pinchcalc.pinch import (
    TorusKnotParams,
    iteration_cap,
    pinch_move,
    pinch_sequence,
    sweep_termination,
)
from pinchcalc.tangles import (
    MatSL2,
    is_slice_family,
    mat_apply,
    mat_mul,
    surgery_result_knot,
    two_bridge_normalize,
)

EXPECTED_ROWS_K = {
    1: [(4, 9), (2, 5), (0, 1)],
    2: [(8, 25), (6, 19), (4, 13), (2, 7), (0, 1)],
    3: [(12, 49), (10, 41), (8, 33), (6, 25), (4, 17), (2, 9), (0, 1)],
    4: [(16, 81), (14, 71), (12, 61), (10, 51), (8, 41), (6, 31), (4, 21),
        (2, 11), (0, 1)],
    5: [(20, 121), (18, 109), (16, 97), (14, 85), (12, 73), (10, 61), (8, 49),
        (6, 37), (4, 25), (2, 13), (0, 1)],
}
EXPECTED_ROWS_J = {
    2: [(8, 9), (6, 7), (4, 5), (2, 3), (0, 1)],
    3: [(12, 25), (10, 21), (8, 17), (6, 13), (4, 9), (2, 5), (0, 1)],
    4: [(16, 49), (14, 43), (12, 37), (10, 31), (8, 25), (6, 19), (4, 13),
        (2, 7), (0, 1)],
    5: [(20, 81), (18, 73), (16, 65), (14, 57), (12, 49), (10, 41), (8, 33),
        (6, 25), (4, 17), (2, 9), (0, 1)],
}


def report(number, label, ok):
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_table_reproduction(capsys):
    start = time.perf_counter()
    ok = True
    for rows in (EXPECTED_ROWS_K, EXPECTED_ROWS_J):
        for expected in rows.values():
            seq = pinch_sequence(TorusKnotParams(*expected[0]))
            ok &= seq.knots() == expected
    code = cli_main(["verify", "tables"])
    out = capsys.readouterr().out
    ok &= code == 0
    ok &= "K: 5/5 rows match, J: 4/4 rows match" in out
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        assert report(1, "table reproduction", ok), f"elapsed={elapsed:.3f}s"


def test_c02_pinch_numbers():
    start = time.perf_counter()
    ok = True
    for n in range(1, 101):
        k = TorusKnotParams(4 * n, (2 * n + 1) ** 2)
        ok &= pinch_sequence(k).pinch_number == 2 * n
    for n in range(2, 101):
        k = TorusKnotParams(4 * n, (2 * n - 1) ** 2)
        ok &= pinch_sequence(k).pinch_number == 2 * n
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert report(2, "pinch numbers 2n", ok), f"elapsed={elapsed:.3f}s"


def test_c03_closed_form_agreement():
    ok = True
    for eps, lo in ((1, 1), (-1, 2)):
        for n in range(lo, 101):
            knot = TorusKnotParams(4 * n, (2 * n + eps) ** 2)
            knots = pinch_sequence(knot).knots()
            ok &= [closed_form_step(n, eps, k) for k in range(2 * n + 1)] == knots
    assert report(3, "closed form equals engine", ok)


def test_c04_four_pinches_j_to_k():
    ok = all(verify_j_to_k(n) for n in range(2, 101))
    assert report(4, "J_n to K_(n-2) in four pinches", ok)


def test_c05_k_independence():
    ok = verify_k_independence(50) == []
    assert report(5, "K sequences avoid other K members", ok)


def test_c06_slice_certificates():
    ok = True
    for fam, eps, lo in (("K", 1, 1), ("J", -1, 2)):
        for n in range(lo, 101):
            m = n + eps
            bridge = two_bridge_normalize(
                ReducedFraction(1, 2 * m + 1),
                ReducedFraction(2 * n, 2 * n - 1),
            )
            # 2n/(-4n(n+-1)-1) in canonical form
            ok &= bridge.normalized == ReducedFraction(-2 * n, 4 * n * m + 1)
            ok &= bridge.normalized == surgery_result_knot(FamilyId(fam, n)).normalized
            cf = cf_even_expand(bridge.normalized)
            ok &= cf.coeffs == (-(2 * n + 2 * eps), -2 * n)
            ok &= is_slice_family(cf)
            det = bridge.determinant()
            ok &= det == (2 * n + eps) ** 2
            ok &= isqrt(det) ** 2 == det
    assert report(6, "slice certificates", ok)


def test_c07_signs_and_criterion():
    ok = True
    for eps, lo in ((1, 1), (-1, 2)):
        for n in range(lo, 101):
            k = TorusKnotParams(4 * n, (2 * n + eps) ** 2)
            seq = sign_sequence(k)
            ok &= seq.pinch_number == 2 * n and all(r.sign < 0 for r in seq.runs)
            swapped = sign_sequence(k.swap())
            ok &= swapped.pinch_number == 2 * n and all(r.sign > 0 for r in swapped.runs)
            verdict = jvc_criterion(k)
            ok &= verdict.negative_count == 2 * n
            ok &= not verdict.equals_pinch_minus_one
    control = jvc_criterion(TorusKnotParams(2, 3))
    ok &= control.negative_count == 1 and control.equals_pinch_minus_one
    assert report(7, "sign sequences and criterion", ok)


def test_c08_witness_oracle():
    rng = random.Random(185224)
    ok = True
    checked = 0
    while checked < 1000:
        p = rng.randint(2, 2000)
        q = rng.randint(2, 2000)
        if gcd(p, q) != 1:
            continue
        step = pinch_move(TorusKnotParams(p, q))
        t = next(v for v in range(p) if (v * q + 1) % p == 0)
        h = next(v for v in range(q) if (v * p - 1) % q == 0)
        ok &= (step.t, step.h) == (t, h)
        checked += 1
    assert report(8, "witnesses match linear scan oracle", ok)


def test_c09_property_suites():
    rng = random.Random(424242)
    ok = True

    # swap symmetry of single moves
    for _ in range(1000):
        p, q = rng.randint(2, 2000), rng.randint(2, 2000)
        if gcd(p, q) != 1:
            continue
        a = pinch_move(TorusKnotParams(p, q)).target
        b = pinch_move(TorusKnotParams(q, p)).target
        ok &= (a.q, a.p) == (b.p, b.q)

    # continued fraction round trip
    trips = 0
    while trips < 1000:
        den = rng.randint(2, 10**5)
        num = rng.randint(1, den - 1) * rng.choice((1, -1))
        if gcd(num, den) != 1:
            continue
        f = ReducedFraction(num, den)
        try:
            cf = cf_even_expand(f)
        except NoEvenExpansionError:
            continue
        ok &= cf_evaluate(cf) == f
        trips += 1

    # composition law for the slope action
    def random_sl2():
        m = MatSL2.identity()
        for _ in range(rng.randint(1, 5)):
            k = rng.randint(-30, 30)
            e = MatSL2(1, k, 0, 1) if rng.random() < 0.5 else MatSL2(1, 0, k, 1)
            m = mat_mul(m, e)
        return m

    for _ in range(500):
        m1, m2 = random_sl2(), random_sl2()
        num, den = rng.randint(-100, 100), rng.randint(-100, 100)
        if num == 0 and den == 0:
            den = 1
        f = ReducedFraction(num, den)
        ok &= mat_apply(mat_mul(m1, m2), f) == mat_apply(m1, mat_apply(m2, f))

    assert report(9, "property suites", ok)


def test_c10_exhaustive_termination():
    checked, violations = sweep_termination(5000)
    ok = violations == [] and checked > 7_000_000

    # ground the swept pinch numbers against full sequences on a sample
    rng = random.Random(31416)
    sampled = 0
    while sampled < 50:
        p, q = rng.randint(2, 5000), rng.randint(2, 5000)
        if gcd(p, q) != 1 or p == q:
            continue
        k = TorusKnotParams(p, q)
        ok &= pinch_sequence(k).pinch_number <= iteration_cap(k)
        sampled += 1
    assert report(10, "exhaustive termination within cap", ok)
