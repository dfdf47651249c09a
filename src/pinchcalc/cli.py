"""Command line front end and the verification harness.

Exit codes: 0 on success or a passing verification, 1 on a verification
violation, 2 on usage or domain errors, 3 on an internal error (a bug).
--json swaps the human-readable text for a single machine-readable report
document.
"""

import argparse
import json
import sys

from .arith import EvenCF, ReducedFraction, cf_even_expand
from .criteria import (
    TheoremViolationError,
    certify_chain,
    counterexample_report,
    jvc_criterion,
)
from .families import (
    FamilyId,
    closed_form_step,
    family_knot,
    k_collisions,
    k_members,
    verify_j_to_k,
)
from .pinch import TorusKnotParams, pinch_move, pinch_sequence
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


def to_json(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"), default=_json_value)


def step_payload(step) -> dict:
    return {
        "from": step.source,
        "to": step.target,
        "t": step.t,
        "h": step.h,
        "sign": fmt_sign(step.sign),
    }


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (results, text_lines, status)


def run_pinch_move(args):
    step = pinch_move(TorusKnotParams(args.p, args.q))
    results = step_payload(step)
    results["p_minus_2t"] = step.p_minus_2t
    results["q_minus_2h"] = step.q_minus_2h
    text = [
        f"{step.source} -> {step.target}  "
        f"t={step.t}  h={step.h}  sign={fmt_sign(step.sign)}"
    ]
    return results, text, "ok"


def run_pinch_seq(args):
    seq = pinch_sequence(TorusKnotParams(args.p, args.q))
    results = {
        "start": seq.start,
        "steps": [step_payload(s) for s in seq.steps],
        "pinch_number": seq.pinch_number,
    }
    text = [
        f"{s.source!s:>10} -> {s.target!s:<10} "
        f"t={s.t:<6} h={s.h:<6} sign={fmt_sign(s.sign)}"
        for s in seq.steps
    ]
    text.append(f"pinch number: {seq.pinch_number}")
    return results, text, "ok"


def run_pinch_number(args):
    knot = TorusKnotParams(args.p, args.q)
    n = pinch_sequence(knot).pinch_number
    return {"start": knot, "pinch_number": n}, [str(n)], "ok"


def run_family(args):
    fid = FamilyId(args.family, args.n)
    knot = family_knot(fid)
    results = {
        "family": fid.family,
        "n": fid.n,
        "knot": knot,
        "trivial": fid.is_trivial,
    }
    suffix = " (unknot)" if fid.is_trivial else ""
    return results, [f"{fid} = T{knot}{suffix}"], "ok"


def run_surgery_knot(args):
    fid = FamilyId(args.family, args.n)
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


def run_tangle_cf(args):
    f = ReducedFraction(args.num, args.den)
    cf = cf_even_expand(f)
    return {"fraction": f, "cf": cf}, [str(cf)], "ok"


def run_tangle_apply(args):
    m = MatSL2(args.a, args.b, args.c, args.d)
    f = ReducedFraction(args.num, args.den)
    image = mat_apply(m, f)
    results = {
        "matrix": [[m.a, m.b], [m.c, m.d]],
        "fraction": f,
        "image": image,
    }
    return results, [fmt_fraction(image)], "ok"


def run_jvc(args):
    verdict = jvc_criterion(TorusKnotParams(args.p, args.q))
    signs = [fmt_sign(s) for s in verdict.signs.signs]
    results = {
        "knot": verdict.signs.knot,
        "signs": signs,
        "negative_count": verdict.negative_count,
        "equals_pinch_minus_one": verdict.equals_pinch_minus_one,
    }
    text = [
        f"sign sequence: [{','.join(signs)}]",
        f"negative count: {verdict.negative_count}",
        f"lower bound reaches pinch number - 1: "
        f"{_yesno(verdict.equals_pinch_minus_one)}",
    ]
    return results, text, "ok"


def run_report(args):
    fid = FamilyId(args.family, args.n)
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
# verification harness: verify_all builds each member's pinch sequence once
# and hands it to the per-member checks below

# summary line of each section after the tables, in document order
SECTION_LINES = {
    "closed_form": "pinch numbers and closed form: {checked} sequences checked, "
                   "{count} violations (n <= {max_n})",
    "j_to_k": "four pinches J_n -> K_(n-2): {checked} checked, {count} violations",
    "k_independence": "K sequences avoid other K members: m, n <= {checked}, "
                      "{count} collisions",
    "reports": "counterexample reports: {checked} certified, {count} violations",
}


def check_reference_tables() -> dict:
    """Diff freshly computed pinch sequences against the frozen rows."""
    out = {}
    for family, rows in (("K", REFERENCE_ROWS_K), ("J", REFERENCE_ROWS_J)):
        matched = 0
        mismatches = []
        for n, expected in sorted(rows.items()):
            start = TorusKnotParams(*expected[0])
            chain = [(k.p, k.q) for k in pinch_sequence(start).knots()]
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


def check_pinch_numbers_and_closed_form(fid, seq, section: dict) -> None:
    """Pinch number 2n and step-by-step closed form agreement for one member."""
    n = fid.n
    if seq.pinch_number != 2 * n:
        section["violations"].append(
            {"member": str(fid), "pinch_number": seq.pinch_number,
             "expected": 2 * n}
        )
        return
    knots = seq.knots()
    for k in range(2 * n + 1):
        formula = closed_form_step(n, fid.eps, k).canonical()
        if formula != knots[k].canonical():
            section["violations"].append(
                {"member": str(fid), "k": k, "closed_form": formula,
                 "engine": knots[k]}
            )
    section["checked"] += 1


def check_j_to_k(max_n: int) -> dict:
    failures = [n for n in range(2, max_n + 1) if not verify_j_to_k(n)]
    return {"checked": max_n - 1, "violations": failures}


def check_k_independence(m: int, seq, members: dict, section: dict) -> None:
    """Record K_m's sequence seq landing on any other K member."""
    section["violations"] += k_collisions(m, seq, members)


def check_reports(fid, seq, section: dict) -> None:
    """Certify one member from its pinch sequence seq."""
    try:
        certify_chain(fid, seq)
        section["checked"] += 1
    except TheoremViolationError as exc:
        section["violations"].append({"member": str(fid), "error": str(exc)})


def verify_all(max_n: int, mode: str = "all") -> dict:
    """Run the requested verification sections and aggregate violations.

    Returns a full report document; status is "violation" when any section
    found one, "ok" otherwise.
    """
    if max_n < 2:
        raise ValueError(f"needs max_n >= 2, got {max_n}")
    full = mode == "all"
    results = {}
    if mode in ("tables", "all"):
        results["tables"] = check_reference_tables()
    if full:
        results["closed_form"] = {"checked": 0, "violations": []}
    if mode in ("corollaries", "all"):
        results["j_to_k"] = check_j_to_k(max_n)
        results["k_independence"] = {"checked": max_n, "violations": []}
        members = k_members(max_n)
    if full:
        results["reports"] = {"checked": 0, "violations": []}
    # the members whose chains the mode reads; one chain is alive at a time
    families = {"corollaries": ("K",), "all": ("K", "J")}.get(mode, ())
    for family in families:
        for n in range(1 if family == "K" else 2, max_n + 1):
            fid = FamilyId(family, n)
            seq = pinch_sequence(family_knot(fid))
            if family == "K":
                check_k_independence(n, seq, members, results["k_independence"])
            if full:
                check_pinch_numbers_and_closed_form(fid, seq, results["closed_form"])
                check_reports(fid, seq, results["reports"])

    clean = all(not t["mismatches"] for t in results.get("tables", {}).values())
    clean &= all(not results[key]["violations"] for key in SECTION_LINES if key in results)
    status = "ok" if clean else "violation"
    return _document("verify", {"mode": mode, "max_n": max_n}, results, status)


def verify_text(doc: dict) -> list[str]:
    results = doc["results"]
    text = []
    if "tables" in results:
        tk, tj = results["tables"]["K"], results["tables"]["J"]
        text.append(
            f"K: {tk['matched']}/{tk['total']} rows match, "
            f"J: {tj['matched']}/{tj['total']} rows match"
        )
    for key, line in SECTION_LINES.items():
        if key in results:
            sec = results[key]
            text.append(line.format(checked=sec["checked"], max_n=doc["inputs"]["max_n"],
                                    count=len(sec["violations"])))
    text.append(f"status: {doc['status']}")
    return text


def run_verify(args):
    doc = verify_all(args.max_n, args.mode)
    return doc["results"], verify_text(doc), doc["status"]


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
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

    def knot_args(p):
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)

    def family_args(p):
        p.add_argument("family", choices=["K", "J"])
        p.add_argument("n", type=int)

    knot_args(sub.add_parser("pinch-move", parents=[common],
                             help="one pinch move with witnesses and sign"))
    knot_args(sub.add_parser("pinch-seq", parents=[common],
                             help="the full pinch sequence down to the unknot"))
    knot_args(sub.add_parser("pinch-number", parents=[common],
                             help="number of pinch moves to the unknot"))
    family_args(sub.add_parser("family", parents=[common],
                               help="the torus knot K_n or J_n"))
    family_args(sub.add_parser("surgery-knot", parents=[common],
                               help="two-bridge knot left by the band surgeries"))

    tangle = sub.add_parser("tangle", parents=[common],
                            help="rational tangle fraction operations")
    tsub = tangle.add_subparsers(dest="tangle_op", required=True)
    tcf = tsub.add_parser("cf", parents=[common],
                          help="all-even continued fraction of num/den")
    tcf.add_argument("num", type=int)
    tcf.add_argument("den", type=int)
    tap = tsub.add_parser("apply", parents=[common],
                          help="apply [[a,b],[c,d]] to the slope num/den")
    for name in ("a", "b", "c", "d", "num", "den"):
        tap.add_argument(name, type=int)

    knot_args(sub.add_parser("jvc", parents=[common],
                             help="sign sequence and the lower-bound criterion"))
    family_args(sub.add_parser("report", parents=[common],
                               help="full counterexample certificate"))

    ver = sub.add_parser("verify", parents=[common],
                         help="recompute and diff the published results")
    ver.add_argument("mode", choices=["tables", "corollaries", "all"])
    ver.add_argument("--max-n", type=int, default=50, dest="max_n")
    return parser


HANDLERS = {
    "pinch-move": run_pinch_move,
    "pinch-seq": run_pinch_seq,
    "pinch-number": run_pinch_number,
    "family": run_family,
    "surgery-knot": run_surgery_knot,
    "tangle cf": run_tangle_cf,
    "tangle apply": run_tangle_apply,
    "jvc": run_jvc,
    "report": run_report,
    "verify": run_verify,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    as_json = getattr(args, "json", False)
    quiet = getattr(args, "quiet", False)

    command = args.command
    if command == "tangle":
        command = f"tangle {args.tangle_op}"

    # the parsed arguments of the subcommand, in declaration order
    inputs = {
        key: value for key, value in vars(args).items()
        if key not in ("command", "tangle_op", "json", "quiet")
    }
    try:
        results, text, status = HANDLERS[command](args)
    except (ValueError, RuntimeError) as exc:
        # a failed theorem check is a violation (1), bad input an error (2),
        # and any other runtime error an internal bug (3)
        if isinstance(exc, TheoremViolationError):
            status, code = "violation", 1
        else:
            status, code = "error", 2 if isinstance(exc, ValueError) else 3
        if not quiet:
            if as_json:
                print(to_json(_document(command, {}, {status: str(exc)}, status)))
            print(f"pinchcalc: {exc}", file=sys.stderr)
        return code

    if not quiet:
        if as_json:
            print(to_json(_document(command, inputs, results, status)))
        else:
            for line in text:
                print(line)
    return 0 if status == "ok" else 1


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
