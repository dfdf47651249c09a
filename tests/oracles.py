"""Slow references and engine probes, each defined once for the whole suite.

Each fast path meets its oracle in one test, in test_pinch.py unless named.
move_chain, one pinch_move per move, checks pinch_runs' rows, pinch_sequence,
sign_sequence, jvc_criterion and the pinch-seq document in
TestPinchRuns::test_runs_expand_to_the_step_chain; the jvc document in
TestPinchRuns::test_jvc_matches_the_step_chain; pinch_number in
TestPinchNumber::test_euclid_path_matches_the_step_oracle; the sweep in
TestSweep::test_matches_direct_sequences; verify_j_to_k on chains of many
runs in test_families.py
TestJToK::test_holds_matches_the_step_oracle_on_any_chain; and every verify
section, closed_form_step, verify_j_to_k on the J chains,
verify_k_independence and counterexample_report on each member up to
n = 300, in test_cli.py
TestVerifyAll::test_sections_match_the_per_member_functions.
scan_witnesses, a linear scan, checks
pinch_witnesses through pinch_move in test_acceptance.py c08.  per_run_runs, an
inverse at every run start, checks the witnesses pinch_runs carries from run to
run in TestPinchRuns::test_carried_witnesses_match_the_run_start_oracle, to 256
bits, and past Hypothesis's widths in its seeded twin,
TestPinchRuns::test_wide_runs_match_the_per_run_engine, at 1024 bits; wider
chains need no oracle, since pinch_runs checks 0 < t < p, 0 < h < q and
ph - qt = 1 at every run, which makes its witnesses the least at any width.
even_cf_entries, one divmod per entry, checks cf_even_expand, which takes each
block of +-2 entries at once, in test_arith.py
TestEvenCF::test_matches_the_step_oracle.  normalize_by_matrix, the matrix
route through MatSL2 and mat_apply, checks two_bridge_normalize, which works
in plain ints, in test_tangles.py
TestTwoBridgeNormalize::test_matches_the_matrix_oracle.

The probes wrap an engine function and record its calls:
count_witness_calls counts inverses and count_knot_builds the
TorusKnotParams built.  bad_runs stands in for pinch.pinch_runs, the one
binding that every chain is read from, with a run that its readers must
refuse.  CHILD_ENV is the environment of every child interpreter the suite
starts.
"""

import os
from pathlib import Path

from pinchcalc import pinch
from pinchcalc.arith import NoEvenExpansionError, ReducedFraction, ext_gcd
from pinchcalc.pinch import PinchRun, TorusKnotParams, pinch_move, pinch_witnesses
from pinchcalc.tangles import (
    DegenerateTangleError, MatSL2, TwoBridgeKnot, least_absolute_residue, mat_apply,
)

# a child interpreter imports the same pinchcalc as the test run
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(pinch.__file__).parents[1])}


def move_chain(k, limit):
    """Step oracle: up to limit moves from k, one pinch_move each."""
    steps = []
    while not k.is_unknot() and len(steps) < limit:
        steps.append(pinch_move(k))
        k = steps[-1].target
    return steps


def even_cf_entries(f):
    """Even-CF step oracle: the entries of f's all-even expansion, one divmod
    each, raising what cf_even_expand raises when the loop reaches it."""
    if f.den == 0 or f.num == 0 or abs(f.num) >= f.den:
        raise ValueError(f"even expansion needs 0 < |f| < 1, got {f}")
    # running reciprocal num/den, denominator kept positive
    num, den = (f.den, f.num) if f.num > 0 else (-f.den, -f.num)
    while True:
        # num/den = 2 half + (rem - den)/den, the residual in [-1, 1)
        half, rem = divmod(num + den, 2 * den)
        if rem == 0:
            raise NoEvenExpansionError(
                f"{f}: reciprocal chain hits the odd integer {2 * half - 1}")
        yield 2 * half
        resid = rem - den
        if resid == 0:
            return
        num, den = (den, resid) if resid > 0 else (-den, -resid)


def normalize_by_matrix(t1, t2):
    """Two-bridge oracle: ext_gcd -> MatSL2 -> mat_apply ->
    least_absolute_residue -> ReducedFraction, raising what
    two_bridge_normalize raises on equal slopes."""
    if t1 == t2:
        raise DegenerateTangleError(f"equal slopes {t1} close up to a link")
    _, x, y = ext_gcd(t1.num, t1.den)
    raw = mat_apply(MatSL2(x, y, -t1.den, t1.num), t2)
    num = least_absolute_residue(raw.num, raw.den)
    return TwoBridgeKnot(t1=t1, t2=t2, normalized=ReducedFraction(num, raw.den))


def scan_witnesses(p, q):
    """Witness oracle: the first t with q*t = -1 (mod p) and the first h with
    p*h = 1 (mod q), found by linear scan."""
    t = next(v for v in range(p) if (v * q + 1) % p == 0)
    h = next(v for v in range(q) if (v * p - 1) % q == 0)
    return t, h


def per_run_runs(k):
    """Reference engine: the runs of k with pinch_witnesses at every run start."""
    runs = []
    while not k.is_unknot():
        t, h = pinch_witnesses(k.p, k.q)
        if k.p > 2 * t:
            sign, count = 1, (k.p - 1) // (2 * t)
        else:
            sign, count = -1, k.p // (2 * (k.p - t))
        runs.append(PinchRun(k.p, k.q, t, h, count, sign))
        k = TorusKnotParams(*run_end(runs[-1]))
    return tuple(runs)


def run_end(run):
    """The (p, q) a run's last move reaches: its start less count strides."""
    dp, dq = run.stride
    return run.p - run.count * dp, run.q - run.count * dq


def count_witness_calls(monkeypatch):
    """Wrap pinch.pinch_witnesses; the returned list collects each call's (p, q)."""
    calls = []
    witnesses = pinch.pinch_witnesses

    def counted(p, q):
        calls.append((p, q))
        return witnesses(p, q)

    monkeypatch.setattr(pinch, "pinch_witnesses", counted)
    return calls


def count_knot_builds(monkeypatch):
    """Wrap TorusKnotParams.__init__; the returned list collects each knot's (p, q)."""
    built = []
    init = TorusKnotParams.__init__

    def counted(knot, p, q):
        built.append((p, q))
        init(knot, p, q)

    monkeypatch.setattr(TorusKnotParams, "__init__", counted)
    return built


def bad_runs(k):
    """A fake pinch.pinch_runs: for any k, the chain of one run from T(4, 9)
    whose witnesses (1, 1) break ph - qt = 1, so reading its stride, or its
    rows, raises RuntimeError."""
    return (PinchRun(4, 9, 1, 1, 1, 1),)
