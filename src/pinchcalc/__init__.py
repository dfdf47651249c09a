"""Pinch move calculus on torus knots.

Exact integer machinery for pinch sequences and pinch numbers, the torus
knot families K_n = T(4n, (2n+1)^2) and J_n = T(4n, (2n-1)^2), and the
rational tangle computation certifying the slice two-bridge knots their
band surgeries produce.
"""

from .arith import (
    DegenerateCFError,
    EvenCF,
    NoEvenExpansionError,
    NotInvertibleError,
    ReducedFraction,
    cf_evaluate,
    cf_even_expand,
    ext_gcd,
    mod_inverse_smallest,
)
from .criteria import (
    CounterexampleReport,
    CriterionNotApplicableError,
    TheoremViolationError,
    counterexample_report,
    jvc_criterion,
    sign_sequence,
)
from .families import (
    FamilyId,
    closed_form_step,
    family_knot,
    verify_j_to_k,
    verify_k_independence,
)
from .pinch import (
    CannotPinchUnknotError,
    InvalidKnotError,
    IterationCapError,
    PinchRun,
    PinchSequence,
    PinchStep,
    TorusKnotParams,
    iteration_cap,
    pinch_move,
    pinch_number,
    pinch_runs,
    pinch_sequence,
    pinch_witnesses,
    sweep_termination,
)
from .tangles import (
    DegenerateTangleError,
    MatSL2,
    TwoBridgeKnot,
    is_slice_family,
    least_absolute_residue,
    mat_apply,
    mat_mul,
    surgery_result_knot,
    two_bridge_equivalent,
    two_bridge_normalize,
)

__version__ = "0.1.0"
