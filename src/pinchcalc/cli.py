"""Command line front end and the verification harness.

Exit codes: 0 on success or a passing verification, 1 on a verification
violation, 2 on usage or domain errors, 3 on an internal error (a bug).
--json swaps the human-readable text for a single machine-readable report
document.

Two readers turn an argv into (command, inputs, flags), flags the set of
FLAGS keys it holds.  _plain_args reads the plain form of every command
without an option (all but verify) straight from COMMANDS and FLAGS, or
gives None, and then argparse reads the same argv.  argparse is the oracle
the tests hold _plain_args to: it writes help and usage errors, reads
abbreviated or --flag=value flags and "--", and reads verify with its
--max-n option.  It is imported only then, so a plain command starts without it.
"""

import functools
import json
import sys
from itertools import chain, islice
from operator import index

from .arith import EvenCF, ReducedFraction, cf_even_expand
from .criteria import (
    TheoremViolationError, counterexample_report, jvc_criterion, surgery_result_knot,
)
from .families import (
    FamilyId, closed_form_step, family_knot, verify_j_to_k, verify_k_independence,
)
from .pinch import PinchSequence, TorusKnotParams, pinch_move, pinch_number, pinch_sequence
from .tangles import MatSL2, is_slice_family, mat_apply

SCHEMA_VERSION = "1"


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
    r"""Knots, fractions and continued fractions as JSON arrays; a JSONText as "\0"."""
    if isinstance(obj, TorusKnotParams):
        return [obj.p, obj.q]
    if isinstance(obj, ReducedFraction):
        return [obj.num, obj.den]
    if isinstance(obj, EvenCF):
        return list(obj.coeffs)
    if isinstance(obj, JSONText):
        return "\0"
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

    Directly in the results dict, to_json writes the chunks verbatim, in
    order, in its place; anywhere else it is an internal error.  The chunks
    are drawn only then, so a handler can return one built from a generator
    and pay for it only when the document is encoded (a generator is drawn
    once, so such a document is encoded once).
    """

    __slots__ = ("chunks",)

    def __init__(self, chunks):
        self.chunks = chunks


def to_json(doc: dict) -> str:
    r"""doc as compact JSON text: one json.dumps call, in which each JSONText
    value of doc["results"] is the slot "\u0000" that its chunks replace.
    Any other slot (a JSONText elsewhere, or a string "\0") raises
    RuntimeError, an internal error."""
    texts = [v for v in doc["results"].values() if isinstance(v, JSONText)]
    dumped = json.dumps(doc, separators=(",", ":"), default=_json_value)
    head, *tails = dumped.split('"\\u0000"')
    # no document string is "\0": inputs are ints or choices from COMMANDS,
    # result strings family letters, signs, member names, statuses and errors
    if len(tails) != len(texts):
        raise RuntimeError(f"JSON text slots: {len(tails)}, JSONText values: {len(texts)}")
    # one join: a list grown by += from the chunks raises SystemError on exhausted memory
    return "".join(chain([head], *(chain(t.chunks, [tail])
                                   for t, tail in zip(texts, tails))))


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


def _pinch_lines(seq: PinchSequence, as_json: bool):
    """Each move of seq as a comma and one JSON object, or as one line of
    text, in one loop per run sign.  Reading a run's stride checks the run.
    A positive run keeps its witnesses, so what follows the target is
    formatted once per run; a negative run steps (t, h) down with (p, q).
    Each knot visited is converted to decimal once, as a target and then as
    a source.
    """
    source = f"{seq.start.p},{seq.start.q}"
    for run in seq.runs:
        dp, dq = run.stride
        p, q, t, h = run.p, run.q, run.t, run.h
        if run.sign > 0:
            end = (f',"t":{t},"h":{h},"sign":"+"}}' if as_json
                   else f" t={t:<6} h={h:<6} sign=+")
            for _ in range(run.count):
                p, q = p - dp, q - dq
                target = f"{p},{q}"
                yield (f',{{"from":[{source}],"to":[{target}]{end}' if as_json
                       else f"{f'({source})':>10} -> {f'({target})':<10}{end}")
                source = target
        else:
            for _ in range(run.count):
                p, q = p - dp, q - dq
                target = f"{p},{q}"
                yield (f',{{"from":[{source}],"to":[{target}],"t":{t},"h":{h},'
                       '"sign":"-"}' if as_json else f"{f'({source})':>10} -> "
                       f"{f'({target})':<10} t={t:<6} h={h:<6} sign=-")
                source = target
                t, h = t - dp, h - dq


def run_pinch_seq(p, q):
    seq = pinch_sequence(TorusKnotParams(p, q))
    pinch = seq.pinch_number

    # each form expands the runs only when it prints.  Each JSON object
    # follows a comma, and the first object's is dropped
    objects = _pinch_lines(seq, True)
    steps = chain("[", (first[1:] for first in islice(objects, 1)), objects, "]")
    text = chain(_pinch_lines(seq, False), [f"pinch number: {pinch}"])
    results = {"start": seq.start, "steps": JSONText(steps), "pinch_number": pinch}
    return results, text, "ok"


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
    determinant = bridge.determinant()
    results = {
        "family": fid.family,
        "n": fid.n,
        "tangle1": bridge.t1,
        "tangle2": bridge.t2,
        "normalized": bridge.normalized,
        "cf": cf,
        "determinant": determinant,
        "slice_recognized": recognized,
    }
    text = [
        f"{fid} bands leave the union of tangles "
        f"{fmt_fraction(bridge.t1)} and {fmt_fraction(bridge.t2)}",
        f"normalized fraction: {fmt_fraction(bridge.normalized)}",
        f"even continued fraction: {cf}",
        f"determinant: {determinant}",
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
    # the runs summed once, for both the count and the verdict
    negative = verdict.negative_count
    equals = negative == 1

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
        yield f"negative count: {negative}"
        yield f"lower bound reaches pinch number - 1: {_yesno(equals)}"

    results = {
        "knot": verdict.start,
        "signs": JSONText(chain("[", signs('"'), "]")),
        "negative_count": negative,
        "equals_pinch_minus_one": equals,
    }
    return results, text(), "ok"


def run_report(family, n):
    fid = FamilyId(family, n)
    rep = counterexample_report(fid, pinch_sequence(family_knot(fid)))
    text = [
        f"{fid} = T{rep.knot}",
        f"pinch number: {rep.pinch_number}",
        f"band surgeries to a slice knot: {rep.band_count}",
        f"slice knot fraction: {fmt_fraction(rep.slice_fraction)}",
        f"even continued fraction: {rep.slice_cf}",
        f"slice family recognized: {_yesno(rep.slice_recognized)}",
        f"negative pinch signs: {rep.jvc_negative_count} "
        f"(equals pinch number - 1: {_yesno(rep.jvc_equals_pinch_minus_one)})",
    ]
    return rep._asdict(), text, "ok"


# ---------------------------------------------------------------------------
# verification harness: every section but tables reads one table of members

# Frozen expected pinch sequences for the small family members.  Kept as
# literal rows on purpose: the verify machinery diffs the sequence of each
# member's knot, from family_knot, against data the engine cannot influence.
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

# the largest --max-n verified; `verify all` builds each member's runs once,
# one run of 2n moves, so it costs about linearly in N (0.14 s in process at 3000)
VERIFY_MAX_N = 3000


def member_table(max_n: int) -> tuple[list, list]:
    """(K_1..K_max_n, J_2..J_max_n), each member as (fid, seq), seq the pinch
    chain of its knot from family_knot: the one builder of member chains.
    So K_m is [0][m - 1] and J_n is [1][n - 2]."""
    table = ([], [])
    for entries, family, first in zip(table, "KJ", (1, 2)):
        for n in range(first, max_n + 1):
            fid = FamilyId(family, n)
            entries.append((fid, pinch_sequence(family_knot(fid))))
    return table


def check_reference_tables() -> dict:
    """Diff each member's chain in a member table against its frozen row."""
    seqs = dict(chain(*member_table(max(REFERENCE_ROWS_K))))
    out = {}
    for family, rows in (("K", REFERENCE_ROWS_K), ("J", REFERENCE_ROWS_J)):
        matched = 0
        mismatches = []
        for n, expected in sorted(rows.items()):
            knots = seqs[FamilyId(family, n)].knots()
            if knots == expected:
                matched += 1
            else:
                mismatches.append({"n": n, "expected": expected, "got": knots})
        out[family] = {
            "matched": matched,
            "total": len(rows),
            "mismatches": mismatches,
        }
    return out


def check_pinch_numbers_and_closed_form(members) -> dict:
    """Pinch number 2n and closed form agreement at every step, for every member.

    The closed form is affine in k, and a run subtracts one stride per
    move, so a chain that is one run starting at the closed form's k = 0
    pair, with the stride from there to its k = 1 pair, agrees with it at
    every k in [0, 2n]: equal first term, difference and length.  Only a
    member that fails this is compared step by step, to list each step that
    differs.  Each stride is read, and so its run checked, before the pinch
    number.
    """
    checked = 0
    violations = []
    for fid, seq in chain(*members):
        runs = seq.runs
        strides = [run.stride for run in runs]
        pinch = seq.pinch_number
        if pinch != 2 * fid.n:
            violations.append({"member": str(fid), "pinch_number": pinch,
                               "expected": 2 * fid.n})
            continue
        p, q = closed_form_step(fid, 0)
        p1, q1 = closed_form_step(fid, 1)
        # one run, from the k = 0 pair, with the stride from there to k = 1
        if len(runs) != 1 or (runs[0].p, runs[0].q, *strides[0]) != (
                p, q, p - p1, q - q1):
            knots = seq.knots()
            for k, pair in enumerate(knots):
                formula = closed_form_step(fid, k)
                if formula != pair:
                    violations.append({"member": str(fid), "k": k,
                                       "closed_form": formula, "engine": pair})
        checked += 1
    return {"checked": checked, "violations": violations}


def check_j_to_k(members) -> dict:
    """Four pinches send J_n to K_(n-2): J_2 to T(0, 1), J_n to the K table's
    (n-2)-th knot for n >= 3."""
    ks, js = members
    targets = chain([(0, 1)], ((seq.start.p, seq.start.q) for _, seq in ks))
    return {"checked": len(js),
            "violations": [fid.n for (fid, seq), target in zip(js, targets)
                           if not verify_j_to_k(seq.runs, target)]}


def check_k_independence(members) -> dict:
    ks, _ = members
    return {"checked": len(ks),
            "violations": verify_k_independence((seq.runs for _, seq in ks), len(ks))}


def check_reports(members) -> dict:
    """Certify every member; a failed certificate is a violation."""
    checked = 0
    violations = []
    for fid, seq in chain(*members):
        try:
            counterexample_report(fid, seq)
            checked += 1
        except TheoremViolationError as exc:
            violations.append({"member": str(fid), "error": str(exc)})
    return {"checked": checked, "violations": violations}


# each section in document order: (check of the member table, summary line).
# The checks are looked up by name at call time, so wrapping or patching a
# module attribute reaches them
SECTIONS = {
    "tables": (lambda members: check_reference_tables(),
               "K: {K[matched]}/{K[total]} rows match, "
               "J: {J[matched]}/{J[total]} rows match"),
    "closed_form": (lambda members: check_pinch_numbers_and_closed_form(members),
                    "pinch numbers and closed form: {checked} sequences checked, "
                    "{count} violations (n <= {max_n})"),
    "j_to_k": (lambda members: check_j_to_k(members),
               "four pinches J_n -> K_(n-2): {checked} checked, {count} violations"),
    "k_independence": (lambda members: check_k_independence(members),
                       "K sequences avoid other K members: m, n <= {checked}, "
                       "{count} collisions"),
    "reports": (lambda members: check_reports(members),
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


def verify_all(max_n: int, mode: str) -> tuple[dict, str]:
    """Run the sections of one mode, in document order, and aggregate violations.

    Returns (results, status): the section results by key, and "violation"
    when any section found one, "ok" otherwise.  Raises ValueError for a
    mode not in MODES, and for max_n below 2 or above VERIFY_MAX_N.
    """
    max_n = index(max_n)  # refuses a float, in every mode
    if mode not in MODES:
        raise ValueError(f"unknown verify mode {mode!r}, expected one of {list(MODES)}")
    if max_n < 2:
        raise ValueError(f"needs max_n >= 2, got {max_n}")
    if max_n > VERIFY_MAX_N:
        raise ValueError(f"max_n {max_n} is over the verify bound {VERIFY_MAX_N}")
    # tables builds its own table, up to its rows; the rest read this one
    members = None if mode == "tables" else member_table(max_n)
    results = {key: SECTIONS[key][0](members) for key in MODES[mode]}
    status = "violation" if any(map(_violations, results.values())) else "ok"
    return results, status


def run_verify(mode, max_n):
    results, status = verify_all(max_n, mode)
    text = [SECTIONS[key][1].format(**sec, count=len(_violations(sec)), max_n=max_n)
            for key, sec in results.items()]
    return results, text + [f"status: {status}"], status


# ---------------------------------------------------------------------------
# parser and dispatch


# the flags every command takes, each with its help, stored under its own name
FLAGS = {
    "--json": "emit a single machine-readable report document",
    "--quiet": "suppress stdout; rely on the exit code",
}
# each command: (handler, help, arguments), each argument (name, choices)
# with choices None for an int; an option, "--name", adds its default
KNOT = [("p", None), ("q", None)]
MEMBER = [("family", ["K", "J"]), ("n", None)]
COMMANDS = {
    "pinch-move": (run_pinch_move, "one pinch move with witnesses and sign", KNOT),
    "pinch-seq": (run_pinch_seq, "the full pinch sequence down to the unknot", KNOT),
    "pinch-number": (run_pinch_number, "number of pinch moves to the unknot", KNOT),
    "family": (run_family, "the torus knot K_n or J_n", MEMBER),
    "surgery-knot": (run_surgery_knot, "two-bridge knot left by the band surgeries",
                     MEMBER),
    "tangle cf": (run_tangle_cf, "all-even continued fraction of num/den",
                  [("num", None), ("den", None)]),
    "tangle apply": (run_tangle_apply, "apply [[a,b],[c,d]] to the slope num/den",
                     [(name, None) for name in ("a", "b", "c", "d", "num", "den")]),
    "jvc": (run_jvc, "sign sequence and the lower-bound criterion", KNOT),
    "report": (run_report, "full counterexample certificate", MEMBER),
    "verify": (run_verify, "recompute and diff the published results",
               [("mode", list(MODES)), ("--max-n", None, 50)]),
}


def build_parser() -> "argparse.ArgumentParser":
    """One parser per COMMANDS entry; each sets args.command to the entry's name."""
    import argparse

    common = argparse.ArgumentParser(add_help=False)
    for flag, help_text in FLAGS.items():
        common.add_argument(flag, dest=flag, action="store_true",
                            default=argparse.SUPPRESS, help=help_text)

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
        for arg_name, choices, *default in arguments:
            leaf.add_argument(arg_name, type=None if choices else int, choices=choices,
                              default=default[0] if default else None)
    return parser


@functools.cache
def _parser() -> "argparse.ArgumentParser":
    """build_parser() once per process.  argparse reads the terminal width
    each time it formats, so help still wraps to the COLUMNS of each call."""
    return build_parser()


def _parsed_args(argv):
    """(command, inputs, flags) from argparse, which raises SystemExit for
    help and for a usage error."""
    args = vars(_parser().parse_args(argv))
    args.pop("tangle_op", None)
    command = args.pop("command")
    flags = {flag for flag in FLAGS if args.pop(flag, False)}
    # what is left are the command's arguments, in declaration order
    return command, args, flags


def _plain_args(argv):
    """_parsed_args(argv) for an argv in plain form, else None.

    The plain form is the words of one COMMANDS entry ("tangle cf" is two),
    then exactly its arguments: each int as int() reads it, each choice one
    of its choices.  The FLAGS keys are exact tokens, anywhere and
    repeated; any other token that starts with "-" must be "-" and ASCII
    digits, which argparse also reads as a negative number.  Anything else
    is None: -h, --, the abbreviation --js, --json=1, a bad int or choice,
    a missing or extra argument, and verify, whose --max-n is an option.
    argparse then reads the argv, and so writes every help text and usage
    error.  An int wider than the interpreter's digit limit fails int() and
    is left to argparse, which refuses it.
    """
    words, flags = [], set()
    for token in argv:
        if token in FLAGS:
            flags.add(token)
        elif token[:1] == "-" and not (token[1:].isdigit() and token.isascii()):
            return None
        else:
            words.append(token)
    # the command is the first word or the first two; no command word holds a space
    if not words or " " in words[0]:
        return None
    named = 1 if words[0] in COMMANDS else 2
    command = " ".join(words[:named])
    if command not in COMMANDS:
        return None
    arguments = COMMANDS[command][2]
    values = words[named:]
    if len(values) != len(arguments):
        return None
    inputs = {}
    for (name, choices, *_), word in zip(arguments, values):
        if name[0] == "-":
            return None
        if choices is None:
            try:
                inputs[name] = int(word)
            except ValueError:
                return None
        elif word in choices:
            inputs[name] = word
        else:
            return None
    return command, inputs, flags


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
        try:
            args = _parsed_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    command, inputs, flags = args
    as_json, quiet = "--json" in flags, "--quiet" in flags
    # an int argument wider than the interpreter's limit on int-to-str
    # digits (4300 by default) fails _plain_args and argparse refuses it,
    # which bounds the input; an output may still be wider, so the limit is
    # lifted while it is built
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if max_digits:
        sys.set_int_max_str_digits(0)
    try:
        results, text, status = COMMANDS[command][0](**inputs)
        # the whole output is built before any of it prints, also under
        # --quiet, so a fault or exhausted memory while building it prints
        # no part of it and gives the exit code it gives without --quiet
        if as_json:
            out = to_json(_document(command, inputs, results, status))
        else:
            out = "\n".join(text)
    except Exception as exc:
        # an output too large to hold: MemoryError, or OverflowError for a
        # length past the address space.  str(MemoryError()) is empty
        too_large = isinstance(exc, (MemoryError, OverflowError))
        # a failed theorem check is a violation (1), bad input or exhausted
        # memory an error (2), and anything else an internal bug (3)
        if isinstance(exc, TheoremViolationError):
            status, code = "violation", 1
        else:
            status, code = "error", 2 if too_large or isinstance(exc, ValueError) else 3
        message = "out of memory" if too_large else str(exc) or type(exc).__name__
        if not quiet:
            if as_json:
                print(to_json(_document(command, {}, {status: message}, status)))
            print(f"pinchcalc: {message}", file=sys.stderr)
        return code
    finally:
        if max_digits:
            sys.set_int_max_str_digits(max_digits)

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
