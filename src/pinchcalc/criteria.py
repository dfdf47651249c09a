"""The Jabuka-Van Cott style lower-bound criterion read from the signs of a
pinch chain, and the assembled per-family certificate.
"""

from dataclasses import dataclass

from .arith import EvenCF, ReducedFraction, cf_even_expand
from .families import FamilyId, family_knot
from .pinch import PinchSequence, TorusKnotParams, pinch_sequence
from .tangles import is_slice_family, surgery_result_knot


class CriterionNotApplicableError(ValueError):
    """The sign criterion needs p even and q odd, both larger than one."""


class TheoremViolationError(RuntimeError):
    """A family member failed a property every member must have: a bug."""


def sign_sequence(k: TorusKnotParams) -> PinchSequence:
    """The pinch chain of k, whose signs are orientation sensitive."""
    return pinch_sequence(k)


def jvc_criterion(k: TorusKnotParams) -> PinchSequence:
    """The combinatorial Jabuka-Van Cott test for p even, q odd, both > 1.

    The lower bound nu - sigma/2 equals pinch number minus one exactly when
    one single move in the pinch sequence has negative sign.  Only that
    combinatorial verdict is computed; no invariant values are produced.
    """
    if k.p <= 1 or k.q <= 1 or k.p % 2 != 0 or k.q % 2 != 1:
        raise CriterionNotApplicableError(
            f"needs p even and q odd with p, q > 1, got ({k.p}, {k.q})"
        )
    return sign_sequence(k)


@dataclass(frozen=True)
class CounterexampleReport:
    """The certificate of one member; the caller holds its FamilyId."""

    knot: TorusKnotParams
    pinch_number: int
    band_count: int
    slice_fraction: ReducedFraction
    slice_cf: EvenCF
    jvc_negative_count: int
    jvc_equals_pinch_minus_one: bool


def counterexample_report(fid: FamilyId) -> CounterexampleReport:
    """The certificate of K_n (n >= 1) or J_n (n >= 2), read from its pinch chain.

    Pinch number 2n, 2n-1 band surgeries to a recognized slice two-bridge
    knot, and a failing lower-bound criterion.  Raises ValueError for J_1,
    TheoremViolationError if a computed piece disagrees with what the
    construction guarantees.
    """
    if fid.is_trivial:
        raise ValueError("J_1 is unknotted; no counterexample report")
    n = fid.n
    knot = family_knot(fid)
    chain = jvc_criterion(knot)
    pinch = chain.pinch_number
    bridge = surgery_result_knot(fid)
    cf = cf_even_expand(bridge.normalized)
    if pinch != 2 * n:
        raise TheoremViolationError(f"{fid}: pinch number {pinch}, expected {2 * n}")
    if not is_slice_family(cf):
        raise TheoremViolationError(
            f"{fid}: surgery fraction {bridge.normalized} expands to {cf}, "
            "not in the slice family"
        )
    return CounterexampleReport(
        knot=knot,
        pinch_number=pinch,
        band_count=2 * n - 1,
        slice_fraction=bridge.normalized,
        slice_cf=cf,
        jvc_negative_count=chain.negative_count,
        jvc_equals_pinch_minus_one=chain.equals_pinch_minus_one,
    )
