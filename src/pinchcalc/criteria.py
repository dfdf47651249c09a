"""The Jabuka-Van Cott style lower-bound criterion read from the signs of a
pinch chain, a member's band surgeries to a two-bridge knot, and the
per-member certificate, which checks that its chain starts at the member.
"""

from collections import namedtuple

from .arith import ReducedFraction, cf_even_expand
from .families import FamilyId, closed_form_step
from .pinch import PinchSequence, TorusKnotParams, pinch_sequence
from .tangles import TwoBridgeKnot, is_slice_family, two_bridge_normalize


class CriterionNotApplicableError(ValueError):
    """The sign criterion needs p even and q odd, both larger than one."""


class TheoremViolationError(RuntimeError):
    """A family member failed a property every member must have: a bug."""


def sign_sequence(k: TorusKnotParams) -> PinchSequence:
    """The pinch chain of k, whose signs are orientation sensitive."""
    return pinch_sequence(k)


def jvc_criterion(k: TorusKnotParams) -> PinchSequence:
    """The combinatorial Jabuka-Van Cott test for p even, q odd, both > 1.

    The lower bound upsilon - sigma/2 equals pinch number minus one exactly
    when one single move in the pinch sequence has negative sign.  Only that
    combinatorial verdict is computed; no invariant values are produced.
    """
    if k.is_unknot() or k.p % 2 != 0 or k.q % 2 != 1:
        raise CriterionNotApplicableError(
            f"needs p even and q odd with p, q > 1, got ({k.p}, {k.q})"
        )
    return sign_sequence(k)


class CounterexampleReport(namedtuple("CounterexampleReport", (
        "family n knot pinch_number band_count slice_fraction slice_cf"
        " slice_recognized jvc_negative_count jvc_equals_pinch_minus_one"))):
    """The certificate of one member, its fields the results of the report
    document in order.  slice_recognized is always True: counterexample_report
    raises otherwise.  A named tuple, as no caller compares it with a plain
    tuple."""

    __slots__ = ()


def surgery_result_knot(fid: FamilyId) -> TwoBridgeKnot:
    """The two-bridge knot produced by the 2n-1 band surgeries on K_n or J_n.

    The bands leave the union of the tangles with slopes 1/(2m+1), where
    m = n+1 for K and n-1 for J, and 2n/(2n-1); normalizing the first slope
    to 1/0 lands the second on 2n/(-4n(n+-1)-1).
    """
    if fid.is_trivial:
        raise ValueError("J_1 is unknotted and has no band surgery description")
    n = fid.n
    m = n + fid.eps
    return two_bridge_normalize(
        ReducedFraction(1, 2 * m + 1), ReducedFraction(2 * n, 2 * n - 1)
    )


def counterexample_report(fid: FamilyId, seq: PinchSequence) -> CounterexampleReport:
    """The certificate of K_n (n >= 1) or J_n (n >= 2), read from seq, the
    pinch chain of its knot from family_knot.

    Pinch number 2n, 2n-1 band surgeries to a recognized slice two-bridge
    knot, a chain that starts at the member's knot (p even, q odd, so the
    criterion applies), and a failing lower-bound criterion.  Raises
    ValueError for J_1, TheoremViolationError if a computed piece disagrees
    with what the construction guarantees.
    """
    if fid.is_trivial:
        raise ValueError("J_1 is unknotted; no counterexample report")
    n = fid.n
    pinch = seq.pinch_number
    bridge = surgery_result_knot(fid)
    cf = cf_even_expand(bridge.normalized)
    if pinch != 2 * n:
        raise TheoremViolationError(f"{fid}: pinch number {pinch}, expected {2 * n}")
    if not is_slice_family(cf):
        raise TheoremViolationError(
            f"{fid}: surgery fraction {bridge.normalized} expands to {cf}, "
            "not in the slice family"
        )
    p, q = closed_form_step(fid, 0)
    if (seq.start.p, seq.start.q) != (p, q):
        raise TheoremViolationError(
            f"{fid}: chain starts at T{seq.start}, not at T({p},{q})")
    negative = seq.negative_count
    return CounterexampleReport(fid.family, n, seq.start, pinch, 2 * n - 1,
                                bridge.normalized, cf, True, negative, negative == 1)
