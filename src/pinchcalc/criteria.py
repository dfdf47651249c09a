"""Sign sequences of pinch moves, the Jabuka-Van Cott style lower-bound
criterion built on them, and the assembled per-family certificate.
"""

from dataclasses import dataclass

from .arith import EvenCF, ReducedFraction, cf_even_expand
from .families import FamilyId, family_knot
from .pinch import PinchSequence, TorusKnotParams, pinch_runs, pinch_sequence
from .tangles import is_slice_family, surgery_result_knot


class CriterionNotApplicableError(ValueError):
    """The sign criterion needs p even and q odd, both larger than one."""


class TheoremViolationError(RuntimeError):
    """A family member failed a property every member must have: a bug."""


@dataclass(frozen=True)
class SignSequence:
    """The signs (+1/-1) of each pinch move from knot down to the unknot."""

    knot: TorusKnotParams
    signs: tuple[int, ...]

    @property
    def negative_count(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    @property
    def equals_pinch_minus_one(self) -> bool:
        """The Jabuka-Van Cott verdict: the lower bound reaches pinch number - 1."""
        return self.negative_count == 1


def sign_sequence(k: TorusKnotParams) -> SignSequence:
    """Signs along the pinch sequence of k, orientation sensitive, read from its runs."""
    signs: list[int] = []
    for run in pinch_runs(k):
        signs += [run.sign] * run.count
    return SignSequence(knot=k, signs=tuple(signs))


def chain_signs(seq: PinchSequence) -> SignSequence:
    """The signs of the moves of an already built pinch sequence."""
    return SignSequence(knot=seq.start, signs=tuple(step.sign for step in seq.steps))


def jvc_criterion(k: TorusKnotParams) -> SignSequence:
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
    """Everything the band surgery construction certifies for one member."""

    fid: FamilyId
    knot: TorusKnotParams
    pinch_number: int
    band_count: int
    slice_fraction: ReducedFraction
    slice_cf: EvenCF
    jvc_negative_count: int
    jvc_equals_pinch_minus_one: bool


def counterexample_report(fid: FamilyId) -> CounterexampleReport:
    """Build the pinch sequence of K_n (n >= 1) or J_n (n >= 2) and certify it."""
    if fid.is_trivial:
        raise ValueError("J_1 is unknotted; no counterexample report")
    return certify_chain(fid, pinch_sequence(family_knot(fid)))


def certify_chain(fid: FamilyId, seq: PinchSequence) -> CounterexampleReport:
    """The certificate for a knotted member from the pinch sequence seq of its knot.

    Pinch number 2n, 2n-1 band surgeries to a recognized slice two-bridge
    knot, and a failing lower-bound criterion.  Raises ValueError for a seq
    starting elsewhere, TheoremViolationError if a computed piece disagrees
    with what the construction guarantees.
    """
    if seq.start != family_knot(fid):
        raise ValueError(f"{fid} is T{family_knot(fid)}, not T{seq.start}")
    n = fid.n
    # family knots are T(even, odd) with both > 1, so the criterion applies
    signs = chain_signs(seq)
    bridge = surgery_result_knot(fid)
    cf = cf_even_expand(bridge.normalized)
    if seq.pinch_number != 2 * n:
        raise TheoremViolationError(
            f"{fid}: pinch number {seq.pinch_number}, expected {2 * n}"
        )
    if not is_slice_family(cf):
        raise TheoremViolationError(
            f"{fid}: surgery fraction {bridge.normalized} expands to {cf}, "
            "not in the slice family"
        )
    return CounterexampleReport(
        fid=fid,
        knot=seq.start,
        pinch_number=seq.pinch_number,
        band_count=2 * n - 1,
        slice_fraction=bridge.normalized,
        slice_cf=cf,
        jvc_negative_count=signs.negative_count,
        jvc_equals_pinch_minus_one=signs.equals_pinch_minus_one,
    )
