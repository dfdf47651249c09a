"""Command line front end and the verification harness.

Exit codes: 0 on success or a passing verification, 1 on a verification
violation, 2 on usage or domain errors, 3 on an internal error (a bug).
--json swaps the human-readable text for a single machine-readable report
document.
"""

import argparse
import functools
import json
import sys
from itertools import chain

from .arith import EvenCF, ReducedFraction, cf_even_expand
from .criteria import TheoremViolationError, counterexample_report, jvc_criterion
from .families import (
    FamilyId,
    closed_form_step,
    family_knot,
    verify_j_to_k,
    verify_k_independence,
)
from .pinch import PinchSequence, TorusKnotParams, pinch_move, pinch_number, pinch_runs
from .tangles import MatSL2, is_slice_family, mat_apply, surgery_result_knot

SCHEMA_VERSION = "1"

# Frozen expected pinch sequences for the small family members.  Kept as
# literal rows on purpose: the verify machinery diffs freshly computed
# sequences against data the engine cannot influence.
REFERENCE_ROWS_K = {
    1: [(4, 9), (2, 5), (0, 1)],
    2: [(8, 25), (6, 19), (4, 13), (2, 7), (0, 1)],
    3: [(12, 49), (10, 41), (8, 33), (6, 25), (4, 17), (2, 9), (0, 1)],
    4: [(16, 81), (14, 71), (12, 61), (10, 51), (8, 41), (6, 31), (4, 21),
        (2, 11), (0, 1)],
    5: [(20, 121), (18, 109), (16, 97), (14, 85), (12, 73), (10, 61), (8, 49),
        (6, 37), (4, 25), (2, 13), (0, 1)],
}
REFERENCE_ROWS_J = {
    2: [(8, 9), (6, 7), (4, 5), (2, 3), (0, 1)],
    3: [(12, 25), (10, 21), (8, 17), (6, 13), (4, 9), (2, 5), (0, 1)],
    4: [(16, 49), (14, 43), (12, 37), (10, 31), (8, 25), (6, 19), (4, 13),
        (2, 7), (0, 1)],
    5: [(20, 81), (18, 73), (16, 65), (14, 57), (12, 49), (10, 41), (8, 33),
        (6, 25), (4, 17), (2, 9), (0, 1)],
}


def fmt_fraction(f: ReducedFraction) -> str:
    """p/q with the sign shown on the denominator, e.g. 2/-9 for (-2, 9)."""
    if f.num < 0:
        return f"{-f.num}/{-f.den}"
    return f"{f.num}/{f.den}"


def fmt_sign(s: int) -> str:
    return "+" if s > 0 else "-"


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def _json_value(obj):
    """Knots, fractions and continued fractions as JSON arrays."""
    if isinstance(obj, TorusKnotParams):
        return [obj.p, obj.q]
    if isinstance(obj, ReducedFraction):
        return [obj.num, obj.den]
    if isinstance(obj, EvenCF):
        return list(obj.coeffs)
    raise TypeError(f"{type(obj).__name__} has no JSON form")


def _document(command, inputs, results, status):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "status": status,
    }


class JSONText:
    """A value of a document's results given as JSON text, in chunks.

    to_json writes the chunks verbatim, in order, in the value's place when
    the value sits directly in the results dict; anywhere else it has no
    JSON form.  The chunks are drawn only then, so a handler can return one
    built from a generator and pay for it only when the document is encoded
    (a generator is drawn once, so such a document is encoded once).
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"), default=_json_value)


def _object_chunks(mapping: dict) -> list[str]:
    """mapping as JSON object text, in chunks: json.dumps on each key and on
    each value, except that a JSONText value is written verbatim."""
    chunks = ["{"]
    for i, (key, value) in enumerate(mapping.items()):
        chunks.append(f"{',' if i else ''}{_dumps(key)}:")
        if isinstance(value, JSONText):
            chunks += value.chunks
        else:
            chunks.append(_dumps(value))
    chunks.append("}")
    return chunks


def to_json(doc: dict) -> str:
    """doc as compact JSON text.

    A document whose results hold no JSONText value takes one json.dumps
    call.  Otherwise each JSONText value of doc["results"] is written
    verbatim in its place, and the document is joined from its parts, with
    json.dumps on each key and on each other value.
    """
    results = doc["results"]
    if not any(isinstance(value, JSONText) for value in results.values()):
        return _dumps(doc)
    parts = {**doc, "results": JSONText(_object_chunks(results))}
    return "".join(_object_chunks(parts))


# ---------------------------------------------------------------------------
# subcommand handlers: parsed arguments in, (results, text lines, status) out


def run_pinch_move(p, q):
    step = pinch_move(TorusKnotParams(p, q))
    sign = fmt_sign(step.sign)
    results = {"from": step.source, "to": step.target, "t": step.t, "h": step.h,
               "sign": sign, "p_minus_2t": step.p_minus_2t,
               "q_minus_2h": step.q_minus_2h}
    text = [f"{step.source} -> {step.target}  t={step.t}  h={step.h}  sign={sign}"]
    return results, text, "ok"


def run_pinch_seq(p, q):
    start = TorusKnotParams(p, q)
    seq = PinchSequence(start, pinch_runs(start))

    # each form expands the runs only when it prints, and converts each
    # visited knot to decimal once: as one move's target and the next's source
    def steps_json():
        yield "["
        source, sep = f"{start.p},{start.q}", ""
        for run in seq.runs:
            sign = fmt_sign(run.sign)
            for _, _, t, h, c, d in run.rows():
                target = f"{c},{d}"
                yield (f'{sep}{{"from":[{source}],"to":[{target}],'
                       f'"t":{t},"h":{h},"sign":"{sign}"}}')
                source, sep = target, ","
        yield "]"

    def text():
        source = f"({start.p},{start.q})"
        for run in seq.runs:
            sign = fmt_sign(run.sign)
            for _, _, t, h, c, d in run.rows():
                target = f"({c},{d})"
                yield f"{source:>10} -> {target:<10} t={t:<6} h={h:<6} sign={sign}"
                source = target
        yield f"pinch number: {seq.pinch_number}"

    results = {"start": start, "steps": JSONText(steps_json()),
               "pinch_number": seq.pinch_number}
    return results, text(), "ok"


def run_pinch_number(p, q):
    knot = TorusKnotParams(p, q)
    n = pinch_number(knot)
    return {"start": knot, "pinch_number": n}, [str(n)], "ok"


def run_family(family, n):
    fid = FamilyId(family, n)
    knot = family_knot(fid)
    results = {
        "family": fid.family,
        "n": fid.n,
        "knot": knot,
        "trivial": fid.is_trivial,
    }
    suffix = " (unknot)" if fid.is_trivial else ""
    return results, [f"{fid} = T{knot}{suffix}"], "ok"


def run_surgery_knot(family, n):
    fid = FamilyId(family, n)
    bridge = surgery_result_knot(fid)
    cf = cf_even_expand(bridge.normalized)
    recognized = is_slice_family(cf)
    results = {
        "family": fid.family,
        "n": fid.n,
        "tangle1": bridge.t1,
        "tangle2": bridge.t2,
        "normalized": bridge.normalized,
        "cf": cf,
        "determinant": bridge.determinant(),
        "slice_recognized": recognized,
    }
    text = [
        f"{fid} bands leave the union of tangles "
        f"{fmt_fraction(bridge.t1)} and {fmt_fraction(bridge.t2)}",
        f"normalized fraction: {fmt_fraction(bridge.normalized)}",
        f"even continued fraction: {cf}",
        f"determinant: {bridge.determinant()}",
        f"slice family member: {_yesno(recognized)}",
    ]
    return results, text, "ok"


def run_tangle_cf(num, den):
    f = ReducedFraction(num, den)
    cf = cf_even_expand(f)
    return {"fraction": f, "cf": cf}, [str(cf)], "ok"


def run_tangle_apply(a, b, c, d, num, den):
    m = MatSL2(a, b, c, d)
    f = ReducedFraction(num, den)
    image = mat_apply(m, f)
    results = {
        "matrix": [[m.a, m.b], [m.c, m.d]],
        "fraction": f,
        "image": image,
    }
    return results, [fmt_fraction(image)], "ok"


def run_jvc(p, q):
    verdict = jvc_criterion(TorusKnotParams(p, q))

    # per run its first sign, then one repeated chunk of ",s" for the rest
    def signs(quote):
        sep = ""
        for run in verdict.runs:
            sign = f"{quote}{fmt_sign(run.sign)}{quote}"
            yield sep + sign
            yield ("," + sign) * (run.count - 1)
            sep = ","

    def text():
        yield f"sign sequence: [{''.join(signs(''))}]"
        yield f"negative count: {verdict.negative_count}"
        yield (f"lower bound reaches pinch number - 1: "
               f"{_yesno(verdict.equals_pinch_minus_one)}")

    results = {
        "knot": verdict.start,
        "signs": JSONText(chain("[", signs('"'), "]")),
        "negative_count": verdict.negative_count,
        "equals_pinch_minus_one": verdict.equals_pinch_minus_one,
    }
    return results, text(), "ok"


def run_report(family, n):
    fid = FamilyId(family, n)
    rep = counterexample_report(fid)
    # counterexample_report raises unless the slice family is recognized
    results = {
        "family": fid.family,
        "n": fid.n,
        "knot": rep.knot,
        "pinch_number": rep.pinch_number,
        "band_count": rep.band_count,
        "slice_fraction": rep.slice_fraction,
        "slice_cf": rep.slice_cf,
        "slice_recognized": True,
        "jvc_negative_count": rep.jvc_negative_count,
        "jvc_equals_pinch_minus_one": rep.jvc_equals_pinch_minus_one,
    }
    text = [
        f"{fid} = T{rep.knot}",
        f"pinch number: {rep.pinch_number}",
        f"band surgeries to a slice knot: {rep.band_count}",
        f"slice knot fraction: {fmt_fraction(rep.slice_fraction)}",
        f"even continued fraction: {rep.slice_cf}",
        "slice family recognized: yes",
        f"negative pinch signs: {rep.jvc_negative_count} "
        f"(equals pinch number - 1: {_yesno(rep.jvc_equals_pinch_minus_one)})",
    ]
    return results, text, "ok"


# ---------------------------------------------------------------------------
# verification harness: each section checks the range on its own

# the largest --max-n verified; `verify all` costs about N^2 (about 9 s at 3000)
VERIFY_MAX_N = 3000


def _members(max_n: int):
    """K_1..K_max_n, then J_2..J_max_n: every knotted member up to max_n."""
    for family, first in (("K", 1), ("J", 2)):
        for n in range(first, max_n + 1):
            yield FamilyId(family, n)


def check_reference_tables() -> dict:
    """Diff freshly computed pinch sequences against the frozen rows."""
    out = {}
    for family, rows in (("K", REFERENCE_ROWS_K), ("J", REFERENCE_ROWS_J)):
        matched = 0
        mismatches = []
        for n, expected in sorted(rows.items()):
            start = TorusKnotParams(*expected[0])
            chain = PinchSequence(start, pinch_runs(start)).knots()
            if chain == expected:
                matched += 1
            else:
                mismatches.append({"n": n, "expected": expected, "got": chain})
        out[family] = {
            "matched": matched,
            "total": len(rows),
            "mismatches": mismatches,
        }
    return out


def check_pinch_numbers_and_closed_form(max_n: int) -> dict:
    """Pinch number 2n and step-by-step closed form agreement for every member."""
    checked = 0
    violations = []
    for fid in _members(max_n):
        n, eps = fid.n, fid.eps
        knot = family_knot(fid)
        knots = PinchSequence(knot, pinch_runs(knot)).knots()
        if len(knots) != 2 * n + 1:
            violations.append({"member": str(fid), "pinch_number": len(knots) - 1,
                               "expected": 2 * n})
            continue
        for k, pair in enumerate(knots):
            formula = closed_form_step(n, eps, k)
            if formula != pair:
                violations.append({"member": str(fid), "k": k,
                                   "closed_form": formula, "engine": pair})
        checked += 1
    return {"checked": checked, "violations": violations}


def check_j_to_k(max_n: int) -> dict:
    failures = [n for n in range(2, max_n + 1) if not verify_j_to_k(n)]
    return {"checked": max_n - 1, "violations": failures}


def check_k_independence(max_n: int) -> dict:
    return {"checked": max_n, "violations": verify_k_independence(max_n)}


def check_reports(max_n: int) -> dict:
    """Certify every member; a failed certificate is a violation."""
    checked = 0
    violations = []
    for fid in _members(max_n):
        try:
            counterexample_report(fid)
            checked += 1
        except TheoremViolationError as exc:
            violations.append({"member": str(fid), "error": str(exc)})
    return {"checked": checked, "violations": violations}


# each section in document order: (check of max_n, summary line).  The
# checks are looked up by name at call time, so wrapping or patching a
# module attribute reaches them
SECTIONS = {
    "tables": (lambda max_n: check_reference_tables(),
               "K: {K[matched]}/{K[total]} rows match, "
               "J: {J[matched]}/{J[total]} rows match"),
    "closed_form": (lambda max_n: check_pinch_numbers_and_closed_form(max_n),
                    "pinch numbers and closed form: {checked} sequences checked, "
                    "{count} violations (n <= {max_n})"),
    "j_to_k": (lambda max_n: check_j_to_k(max_n),
               "four pinches J_n -> K_(n-2): {checked} checked, {count} violations"),
    "k_independence": (lambda max_n: check_k_independence(max_n),
                       "K sequences avoid other K members: m, n <= {checked}, "
                       "{count} collisions"),
    "reports": (lambda max_n: check_reports(max_n),
                "counterexample reports: {checked} certified, {count} violations"),
}
# the sections each verify mode runs
MODES = {
    "tables": ("tables",),
    "corollaries": ("j_to_k", "k_independence"),
    "all": tuple(SECTIONS),
}


def _violations(section: dict) -> list:
    """What a section found wrong; for the tables, each family's mismatches."""
    if "violations" in section:
        return section["violations"]
    return [m for family in section.values() for m in family["mismatches"]]


def verify_all(max_n: int, mode: str = "all") -> dict:
    """Run the sections of one mode, in document order, and aggregate violations.

    Returns a full report document; status is "violation" when any section
    found one, "ok" otherwise.  Raises ValueError for a mode not in MODES,
    and for max_n below 2 or above VERIFY_MAX_N.
    """
    if mode not in MODES:
        raise ValueError(f"unknown verify mode {mode!r}, expected one of {list(MODES)}")
    if max_n < 2:
        raise ValueError(f"needs max_n >= 2, got {max_n}")
    if max_n > VERIFY_MAX_N:
        raise ValueError(f"max_n {max_n} is over the verify bound {VERIFY_MAX_N}")
    results = {key: SECTIONS[key][0](max_n) for key in MODES[mode]}
    status = "violation" if any(map(_violations, results.values())) else "ok"
    return _document("verify", {"mode": mode, "max_n": max_n}, results, status)


def run_verify(mode, max_n):
    doc = verify_all(max_n, mode)
    text = [SECTIONS[key][1].format(**sec, count=len(_violations(sec)), max_n=max_n)
            for key, sec in doc["results"].items()]
    return doc["results"], text + [f"status: {doc['status']}"], doc["status"]


# ---------------------------------------------------------------------------
# parser and dispatch


# each command: (handler, help, arguments); a bare argument name is an int
KNOT = ["p", "q"]
MEMBER = [("family", {"choices": ["K", "J"]}), "n"]
COMMANDS = {
    "pinch-move": (run_pinch_move, "one pinch move with witnesses and sign", KNOT),
    "pinch-seq": (run_pinch_seq, "the full pinch sequence down to the unknot", KNOT),
    "pinch-number": (run_pinch_number, "number of pinch moves to the unknot", KNOT),
    "family": (run_family, "the torus knot K_n or J_n", MEMBER),
    "surgery-knot": (run_surgery_knot, "two-bridge knot left by the band surgeries",
                     MEMBER),
    "tangle cf": (run_tangle_cf, "all-even continued fraction of num/den",
                  ["num", "den"]),
    "tangle apply": (run_tangle_apply, "apply [[a,b],[c,d]] to the slope num/den",
                     ["a", "b", "c", "d", "num", "den"]),
    "jvc": (run_jvc, "sign sequence and the lower-bound criterion", KNOT),
    "report": (run_report, "full counterexample certificate", MEMBER),
    "verify": (run_verify, "recompute and diff the published results",
               [("mode", {"choices": list(MODES)}),
                ("--max-n", {"type": int, "default": 50, "dest": "max_n"})]),
}


def build_parser() -> argparse.ArgumentParser:
    """One parser per COMMANDS entry; each sets args.command to the entry's name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit a single machine-readable report document",
    )
    common.add_argument(
        "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress stdout; rely on the exit code",
    )

    parser = argparse.ArgumentParser(
        prog="pinchcalc",
        description="Pinch move calculus on torus knots.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, arguments) in COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group and group not in sub.choices:
            tangle = sub.add_parser(group, parents=[common],
                                    help="rational tangle fraction operations")
            tangle_ops = tangle.add_subparsers(dest="tangle_op", required=True)
        leaf = (tangle_ops if group else sub).add_parser(
            name, parents=[common], help=help_text)
        leaf.set_defaults(command=command)
        for arg in arguments:
            arg_name, kwargs = (arg, {"type": int}) if isinstance(arg, str) else arg
            leaf.add_argument(arg_name, **kwargs)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process.  argparse reads the terminal width
    each time it formats, so help still wraps to the COLUMNS of each call."""
    return build_parser()


def cli_main(argv=None) -> int:
    try:
        inputs = vars(_parser().parse_args(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    # what is left are the parsed arguments of the subcommand, in declaration order
    command = inputs.pop("command")
    inputs.pop("tangle_op", None)
    as_json = inputs.pop("json", False)
    quiet = inputs.pop("quiet", False)
    try:
        results, text, status = COMMANDS[command][0](**inputs)
        # the whole output is built before any of it prints, also under
        # --quiet, so a fault or exhausted memory while building it prints
        # no part of it and gives the exit code it gives without --quiet
        if as_json:
            out = to_json(_document(command, inputs, results, status))
        else:
            out = "\n".join(text)
    except (ValueError, RuntimeError, MemoryError, OverflowError) as exc:
        # a failed theorem check is a violation (1), bad input or exhausted
        # memory an error (2), and any other runtime error an internal bug (3)
        if isinstance(exc, TheoremViolationError):
            status, code = "violation", 1
        else:
            status, code = "error", 3 if isinstance(exc, RuntimeError) else 2
        # an output too large to hold: MemoryError, or OverflowError for a
        # length past the address space.  str(MemoryError()) is empty
        too_large = isinstance(exc, (MemoryError, OverflowError))
        message = "out of memory" if too_large else str(exc)
        if not quiet:
            if as_json:
                print(to_json(_document(command, {}, {status: message}, status)))
            print(f"pinchcalc: {message}", file=sys.stderr)
        return code

    if not quiet:
        print(out)
    return 0 if status == "ok" else 1


def main() -> None:
    # a reader that closes the pipe early (`| head`) ends the process by
    # SIGPIPE, as it ends other filters, not by a BrokenPipeError traceback
    # and exit 1.  Only the command line process takes this handler: code
    # that calls cli_main keeps its own, and does not import signal
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(cli_main(sys.argv[1:]))
