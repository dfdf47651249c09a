"""The refusals of bad input, in one table.

Each row is a call, the exact error it raises, as "Type: message" or the
type alone where Python words the message (as operator.index does for a
float), and the argv of a CLI command that reaches the same refusal, or
None.  That command exits 2 with no stdout and "pinchcalc: message" on
stderr.  test_every_refusal_is_reached parses src/ and checks that the
rows reach every raise of ValueError or a subclass, so a new validator
needs a row.  An internal bug raises RuntimeError instead; those are in
test_cli.py's test_broken_invariant_raises.
"""

import ast
import builtins
import importlib
import traceback
from pathlib import Path

import pytest

import pinchcalc
from pinchcalc.arith import (
    EvenCF, ReducedFraction, cf_evaluate, cf_even_expand, ext_gcd, mod_inverse_smallest,
)
from pinchcalc.cli import cli_main, verify_all
from pinchcalc.criteria import counterexample_report, jvc_criterion, surgery_result_knot
from pinchcalc.families import FamilyId, closed_form_step, family_knot
from pinchcalc.pinch import TorusKnotParams, pinch_move, pinch_sequence, sweep_termination
from pinchcalc.tangles import (
    MatSL2, TwoBridgeKnot, least_absolute_residue, two_bridge_normalize,
)

F = ReducedFraction
J_1 = FamilyId("J", 1)
NOT_ONE = "ValueError: determinant must be 1, got"
NO_EXPANSION = "ValueError: even expansion needs 0 < |f| < 1, got"
ODD_TAIL = "NoEvenExpansionError: {}: reciprocal chain hits the odd integer 3"
NOT_JVC = "CriterionNotApplicableError: needs p even and q odd with p, q > 1, got"

# (id, call, error, argv of the CLI command that reaches it or None)
REFUSALS = [
    # arith
    ("gcd-zero-zero", lambda: ext_gcd(0, 0), "ValueError: gcd(0, 0) is undefined", None),
    ("gcd-float", lambda: ext_gcd(4.0, 6.0), "TypeError", None),
    ("inverse-modulus", lambda: mod_inverse_smallest(3, 0),
     "ValueError: modulus must be >= 1, got 0", None),
    ("inverse-not-coprime", lambda: mod_inverse_smallest(2, 4),
     "NotInvertibleError: 2 is not invertible mod 4 (gcd 2)", None),
    ("fraction-zero-over-zero", lambda: F(0, 0), "ValueError: 0/0 is not a slope",
     ["tangle", "cf", "0", "0"]),
    ("cf-empty", lambda: EvenCF(()),
     "ValueError: continued fraction needs at least one entry", None),
    ("cf-odd-entry", lambda: EvenCF((3, 2)),
     "ValueError: entries must be even and nonzero, got 3", None),
    ("cf-zero-entry", lambda: EvenCF((2, 0)),
     "ValueError: entries must be even and nonzero, got 0", None),
    # 2.0 % 2 == 0, so a float entry would otherwise pass as even
    ("cf-float-entry", lambda: EvenCF((2.0, 4.0)), "TypeError", None),
    ("expand-zero", lambda: cf_even_expand(F(0, 1)), f"{NO_EXPANSION} 0/1",
     ["tangle", "cf", "0", "1"]),
    ("expand-one", lambda: cf_even_expand(F(5, 5)), f"{NO_EXPANSION} 1/1",
     ["tangle", "cf", "5", "5"]),
    ("expand-3-over-2", lambda: cf_even_expand(F(3, 2)), f"{NO_EXPANSION} 3/2",
     ["tangle", "cf", "3", "2"]),
    ("expand-5-over-3", lambda: cf_even_expand(F(5, 3)), f"{NO_EXPANSION} 5/3",
     ["tangle", "cf", "5", "3"]),
    ("expand-infinity", lambda: cf_even_expand(F(1, 0)), f"{NO_EXPANSION} 1/0",
     ["tangle", "cf", "1", "0"]),
    # the reciprocal of 1/3 is the odd integer 3; 7/3 = 2 + 1/3 meets it one level down
    ("expand-odd-reciprocal", lambda: cf_even_expand(F(1, 3)), ODD_TAIL.format("1/3"),
     ["tangle", "cf", "1", "3"]),
    ("expand-odd-tail", lambda: cf_even_expand(F(3, 7)), ODD_TAIL.format("3/7"),
     ["tangle", "cf", "3", "7"]),
    ("evaluate-empty", lambda: cf_evaluate([]),
     "ValueError: continued fraction needs at least one entry", None),
    ("evaluate-zero-entry", lambda: cf_evaluate([2, 0]),
     "ValueError: continued fraction entries must be nonzero", None),
    # int() would truncate 2.5 and return 4/9, the value of [2, 4]
    ("evaluate-float-entry", lambda: cf_evaluate([2.5, 4]), "TypeError", None),
    # the tail [1, -1] evaluates to zero, so the next reciprocal blows up
    ("evaluate-zero-tail", lambda: cf_evaluate([2, 1, -1]),
     "DegenerateCFError: zero tail value inside the continued fraction", None),
    # pinch
    ("knot-negative", lambda: TorusKnotParams(-2, 3),
     "InvalidKnotError: coordinates must be nonnegative, got (-2, 3)",
     ["pinch-move", "-2", "3"]),
    ("knot-not-coprime", lambda: TorusKnotParams(4, 6),
     "InvalidKnotError: (4, 6) is not a coprime pair", ["pinch-move", "4", "6"]),
    ("knot-zero-zero", lambda: TorusKnotParams(0, 0),
     "InvalidKnotError: (0, 0) is not a coprime pair", ["pinch-number", "0", "0"]),
    ("knot-float", lambda: TorusKnotParams(4.5, 3), "TypeError", None),
    ("pinch-unknot", lambda: pinch_move(TorusKnotParams(1, 5)),
     "CannotPinchUnknotError: T(1,5) is unknotted and cannot be pinched",
     ["pinch-move", "1", "5"]),
    ("pinch-unknot-0-1", lambda: pinch_move(TorusKnotParams(0, 1)),
     "CannotPinchUnknotError: T(0,1) is unknotted and cannot be pinched",
     ["pinch-move", "0", "1"]),
    # about 3e11 pairs, refused before the walk starts
    ("sweep-over-bound", lambda: sweep_termination(10**6),
     "ValueError: limit 1000000 is over the sweep bound 23169", None),
    # families
    ("family-letter", lambda: FamilyId("L", 3),
     "ValueError: family must be 'K' or 'J', got 'L'", None),
    ("family-n", lambda: FamilyId("K", 0), "ValueError: n must be positive, got 0",
     ["family", "K", "0"]),
    # a float n would be built and fail only later, inside gcd
    ("family-float-n", lambda: FamilyId("K", 2.0), "TypeError", None),
    ("closed-form-k", lambda: closed_form_step(FamilyId("K", 3), 7),
     "ValueError: k must lie in [0, 6], got 7", None),
    # a float k gave (5.0, 16.0)
    ("closed-form-float-k", lambda: closed_form_step(FamilyId("K", 2), 1.5), "TypeError", None),
    # tangles
    ("matrix-det-minus-one", lambda: MatSL2(1, 0, 0, -1), f"{NOT_ONE} -1",
     ["tangle", "apply", "1", "0", "0", "-1", "1", "2"]),
    ("matrix-det-four", lambda: MatSL2(2, 0, 0, 2), f"{NOT_ONE} 4",
     ["tangle", "apply", "2", "0", "0", "2", "1", "2"]),
    ("matrix-det-two", lambda: MatSL2(1, 0, 0, 2), f"{NOT_ONE} 2",
     ["tangle", "apply", "1", "0", "0", "2", "1", "2"]),
    # 1.0 * 1 - 0 * 0 == 1 passes the determinant, then fails in gcd
    ("matrix-float", lambda: MatSL2(1.0, 0, 0, 1), "TypeError", None),
    ("residue-float", lambda: least_absolute_residue(2.5, 9), "TypeError", None),
    # no command reaches it: two_bridge_normalize passes a positive denominator
    ("residue-modulus", lambda: least_absolute_residue(5, 0),
     "ValueError: modulus must be >= 1, got 0", None),
    ("closure-infinite", lambda: TwoBridgeKnot(F(1, 0), F(0, 1), F(1, 0)).determinant(),
     "ValueError: degenerate closure fraction 1/0 has no determinant", None),
    ("equal-slopes", lambda: two_bridge_normalize(F(1, 5), F(1, 5)),
     "DegenerateTangleError: equal slopes 1/5 close up to a link", None),
    # criteria
    ("surgery-trivial", lambda: surgery_result_knot(J_1),
     "ValueError: J_1 is unknotted and has no band surgery description",
     ["surgery-knot", "J", "1"]),
    ("jvc-odd-p-even-q", lambda: jvc_criterion(TorusKnotParams(9, 4)), f"{NOT_JVC} (9, 4)",
     ["jvc", "9", "4"]),
    ("jvc-odd-p-odd-q", lambda: jvc_criterion(TorusKnotParams(3, 5)), f"{NOT_JVC} (3, 5)",
     ["jvc", "3", "5"]),
    ("jvc-unknot", lambda: jvc_criterion(TorusKnotParams(1, 4)), f"{NOT_JVC} (1, 4)",
     ["jvc", "1", "4"]),
    ("report-trivial",
     lambda: counterexample_report(J_1, pinch_sequence(family_knot(J_1))),
     "ValueError: J_1 is unknotted; no counterexample report", ["report", "J", "1"]),
    # cli; argparse refuses a mode not in MODES before verify_all sees it
    ("verify-mode", lambda: verify_all(5, "bogus"),
     "ValueError: unknown verify mode 'bogus', expected one of "
     "['tables', 'corollaries', 'all']", None),
    # the tables section, which does not read max_n, would otherwise pass it
    ("verify-float-max-n", lambda: verify_all(5.0, "tables"), "TypeError", None),
    ("verify-small", lambda: verify_all(1, "all"), "ValueError: needs max_n >= 2, got 1",
     ["verify", "all", "--max-n", "1"]),
    # refused before any section runs
    ("verify-over-bound", lambda: verify_all(3001, "all"),
     "ValueError: max_n 3001 is over the verify bound 3000",
     ["verify", "all", "--max-n", "3001"]),
]


def raise_of(call):
    """The exception call raises, and the (file, line) of the innermost src/
    frame it passed through."""
    with pytest.raises((ValueError, TypeError)) as raised:
        call()
    src = Path(pinchcalc.__file__).parent
    frame = [f for f in traceback.extract_tb(raised.tb) if Path(f.filename).parent == src][-1]
    return raised, (Path(frame.filename).name, frame.lineno)


@pytest.mark.parametrize("call, error, argv", [row[1:] for row in REFUSALS],
                         ids=[row[0] for row in REFUSALS])
def test_refusal(capsys, call, error, argv):
    raised, _ = raise_of(call)
    kind, _, message = error.partition(": ")
    # the exact class, not a subclass, and the whole message
    assert raised.type.__name__ == kind
    if message:
        assert str(raised.value) == message
    if argv:
        assert cli_main(argv) == 2
        assert capsys.readouterr() == ("", f"pinchcalc: {message}\n")


def value_error_raises():
    """(file, first line, last line) of every raise in src/ of ValueError or a
    subclass, each class read from its module's namespace or the builtins."""
    sites = []
    for path in sorted(Path(pinchcalc.__file__).parent.glob("*.py")):
        if path.stem == "__main__":  # importing it runs the command line
            continue
        namespace = {**vars(builtins), **vars(importlib.import_module(f"pinchcalc.{path.stem}"))}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                # only a class named in the module is resolved; any other target fails here
                cls = namespace.get(exc.id) if isinstance(exc, ast.Name) else None
                assert isinstance(cls, type), \
                    f"{path.name}:{node.lineno} raises {ast.unparse(node.exc)}, not a named class"
                if issubclass(cls, ValueError):
                    sites.append((path.name, node.lineno, node.end_lineno))
    return sites


def test_every_refusal_is_reached():
    reached = {raise_of(row[1])[1] for row in REFUSALS}
    sites = value_error_raises()
    missed = [f"{name}:{first}" for name, first, last in sites
              if not any(name == file and first <= line <= last for file, line in reached)]
    assert sites and missed == []
