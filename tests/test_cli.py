import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import pinchcalc
from pinchcalc import cli, criteria, pinch
from pinchcalc.cli import cli_main, fmt_fraction, verify_all
from pinchcalc.arith import ReducedFraction
from pinchcalc.pinch import TorusKnotParams


def doc(command, inputs, results, status="ok"):
    """A report document as the CLI prints it, from JSON text fragments."""
    return (
        f'{{"schema_version":"1","command":"{command}","inputs":{{{inputs}}},'
        f'"results":{{{results}}},"status":"{status}"}}\n'
    )


GOLDEN_PINCH_SEQ_4_9 = doc(
    "pinch-seq", '"p":4,"q":9',
    '"start":[4,9],"steps":['
    '{"from":[4,9],"to":[2,5],"t":3,"h":7,"sign":"-"},'
    '{"from":[2,5],"to":[0,1],"t":1,"h":3,"sign":"-"}],'
    '"pinch_number":2',
)
# scripts/cli_digests.py: every pinch-seq output of its fixed set
CLI_DIGEST_PINCH_SEQ = (
    "ebf9951823aae54643fa13e6c08f593f49f26db08370a941c8fa3b4af2a5ea89  "
    "pinch-seq  (578 calls)"
)
TABLES = (
    '"tables":{"K":{"matched":5,"total":5,"mismatches":[]},'
    '"J":{"matched":4,"total":4,"mismatches":[]}}'
)
CLOSED_FORM_OK = '"closed_form":{"checked":9,"violations":[]}'
COROLLARIES = (
    '"j_to_k":{"checked":4,"violations":[]},'
    '"k_independence":{"checked":5,"violations":[]}'
)
REPORTS_OK = '"reports":{"checked":9,"violations":[]}'
SLICE_VIOLATION_K_2 = (
    "K_2: surgery fraction -4/25 expands to [-6,-4], not in the slice family"
)


def corrupt_closed_form(monkeypatch):
    """Closed form wrong at K_3 steps 1 and 4 and at J_2 step 0."""
    real = cli.closed_form_step

    def fake(n, eps, k):
        if (n, eps, k) in {(3, 1, 1), (3, 1, 4), (2, -1, 0)}:
            return (0, 1)
        return real(n, eps, k)

    monkeypatch.setattr(cli, "closed_form_step", fake)


def reject_slice(monkeypatch):
    """Slice recognition fails for K_2 ([-6,-4]) and J_4 ([-6,-8])."""
    real = criteria.is_slice_family
    monkeypatch.setattr(
        criteria, "is_slice_family",
        lambda cf: cf.coeffs not in {(-6, -4), (-6, -8)} and real(cf),
    )


def fail_j_to_k_at_3(monkeypatch):
    """Four pinches from J_3 miss K_1."""
    real = cli.verify_j_to_k
    monkeypatch.setattr(cli, "verify_j_to_k", lambda n: n != 3 and real(n))


def collide_k_3_with_k_1(monkeypatch):
    """The chain of K_3 passes through K_1."""
    monkeypatch.setattr(cli, "verify_k_independence", lambda max_n: [(3, 1)])


def mismatch_k_1_row(monkeypatch):
    """The frozen K_1 row ends at (0, 3), not the unknot."""
    monkeypatch.setitem(cli.REFERENCE_ROWS_K, 1, [(4, 9), (2, 5), (0, 3)])


def k_2_pinches_twice(module):
    """A patch making module's K_2 the knot T(8, 27), of pinch number 2, not 4."""
    def patch(monkeypatch):
        real = module.family_knot
        monkeypatch.setattr(
            module, "family_knot",
            lambda fid: TorusKnotParams(8, 27) if str(fid) == "K_2" else real(fid),
        )
    return patch


def no_patch(monkeypatch):
    pass


# (argv, patch, exit code, stdout, stderr): every byte of the output pinned
GOLDEN = [
    pytest.param(
        ["pinch-seq", "4", "9", "--json"], no_patch, 0, GOLDEN_PINCH_SEQ_4_9, "",
        id="pinch-seq",
    ),
    pytest.param(
        ["--json", "pinch-seq", "4", "9"], no_patch, 0, GOLDEN_PINCH_SEQ_4_9, "",
        id="json-flag-first",
    ),
    pytest.param(
        ["pinch-move", "4", "9", "--json"], no_patch, 0,
        doc("pinch-move", '"p":4,"q":9',
            '"from":[4,9],"to":[2,5],"t":3,"h":7,"sign":"-",'
            '"p_minus_2t":-2,"q_minus_2h":-5'),
        "", id="pinch-move",
    ),
    pytest.param(
        ["family", "K", "3", "--json"], no_patch, 0,
        doc("family", '"family":"K","n":3',
            '"family":"K","n":3,"knot":[12,49],"trivial":false'),
        "", id="family",
    ),
    pytest.param(
        ["surgery-knot", "J", "2", "--json"], no_patch, 0,
        doc("surgery-knot", '"family":"J","n":2',
            '"family":"J","n":2,"tangle1":[1,3],"tangle2":[4,3],'
            '"normalized":[-4,9],"cf":[-2,-4],"determinant":9,'
            '"slice_recognized":true'),
        "", id="surgery-knot",
    ),
    pytest.param(
        ["tangle", "cf", "2", "-9", "--json"], no_patch, 0,
        doc("tangle cf", '"num":2,"den":-9', '"fraction":[-2,9],"cf":[-4,-2]'),
        "", id="tangle-cf",
    ),
    pytest.param(
        ["tangle", "apply", "1", "0", "-7", "1", "4", "3", "--json"], no_patch, 0,
        doc("tangle apply", '"a":1,"b":0,"c":-7,"d":1,"num":4,"den":3',
            '"matrix":[[1,0],[-7,1]],"fraction":[4,3],"image":[-4,25]'),
        "", id="tangle-apply",
    ),
    pytest.param(
        ["jvc", "8", "9", "--json"], no_patch, 0,
        doc("jvc", '"p":8,"q":9',
            '"knot":[8,9],"signs":["-","-","-","-"],"negative_count":4,'
            '"equals_pinch_minus_one":false'),
        "", id="jvc",
    ),
    pytest.param(
        ["report", "K", "1", "--json"], no_patch, 0,
        doc("report", '"family":"K","n":1',
            '"family":"K","n":1,"knot":[4,9],"pinch_number":2,'
            '"band_count":1,"slice_fraction":[-2,9],"slice_cf":[-4,-2],'
            '"slice_recognized":true,"jvc_negative_count":2,'
            '"jvc_equals_pinch_minus_one":false'),
        "", id="report-K-1",
    ),
    pytest.param(
        ["report", "J", "2", "--json"], no_patch, 0,
        doc("report", '"family":"J","n":2',
            '"family":"J","n":2,"knot":[8,9],"pinch_number":4,'
            '"band_count":3,"slice_fraction":[-4,9],"slice_cf":[-2,-4],'
            '"slice_recognized":true,"jvc_negative_count":4,'
            '"jvc_equals_pinch_minus_one":false'),
        "", id="report-J-2",
    ),
    pytest.param(
        ["verify", "tables", "--json"], no_patch, 0,
        doc("verify", '"mode":"tables","max_n":50', TABLES),
        "", id="verify-tables",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5", "--json"], no_patch, 0,
        doc("verify", '"mode":"all","max_n":5',
            f"{TABLES},{CLOSED_FORM_OK},{COROLLARIES},{REPORTS_OK}"),
        "", id="verify-all",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5", "--json"], no_patch, 0,
        doc("verify", '"mode":"corollaries","max_n":5', COROLLARIES),
        "", id="verify-corollaries",
    ),
    pytest.param(
        ["pinch-move", "4", "9"], no_patch, 0,
        "(4,9) -> (2,5)  t=3  h=7  sign=-\n", "", id="pinch-move-text",
    ),
    pytest.param(
        ["pinch-seq", "8", "25"], no_patch, 0,
        "    (8,25) -> (6,19)     t=7      h=22     sign=-\n"
        "    (6,19) -> (4,13)     t=5      h=16     sign=-\n"
        "    (4,13) -> (2,7)      t=3      h=10     sign=-\n"
        "     (2,7) -> (0,1)      t=1      h=4      sign=-\n"
        "pinch number: 4\n",
        "", id="pinch-seq-text",
    ),
    pytest.param(
        ["pinch-seq", "16", "21", "--json"], no_patch, 0,
        doc("pinch-seq", '"p":16,"q":21',
            '"start":[16,21],"steps":['
            '{"from":[16,21],"to":[10,13],"t":3,"h":4,"sign":"+"},'
            '{"from":[10,13],"to":[4,5],"t":3,"h":4,"sign":"+"},'
            '{"from":[4,5],"to":[2,3],"t":3,"h":4,"sign":"-"},'
            '{"from":[2,3],"to":[0,1],"t":1,"h":2,"sign":"-"}],'
            '"pinch_number":4'),
        "", id="pinch-seq-two-runs",
    ),
    pytest.param(
        ["pinch-seq", "16", "21"], no_patch, 0,
        "   (16,21) -> (10,13)    t=3      h=4      sign=+\n"
        "   (10,13) -> (4,5)      t=3      h=4      sign=+\n"
        "     (4,5) -> (2,3)      t=3      h=4      sign=-\n"
        "     (2,3) -> (0,1)      t=1      h=2      sign=-\n"
        "pinch number: 4\n",
        "", id="pinch-seq-two-runs-text",
    ),
    pytest.param(
        ["pinch-seq", "1", "5", "--json"], no_patch, 0,
        doc("pinch-seq", '"p":1,"q":5', '"start":[1,5],"steps":[],"pinch_number":0'),
        "", id="pinch-seq-unknot",
    ),
    pytest.param(
        ["pinch-seq", "1", "5"], no_patch, 0, "pinch number: 0\n", "",
        id="pinch-seq-unknot-text",
    ),
    pytest.param(
        ["pinch-number", "20", "81"], no_patch, 0, "10\n", "", id="pinch-number-text",
    ),
    pytest.param(
        ["family", "K", "3"], no_patch, 0, "K_3 = T(12,49)\n", "", id="family-text",
    ),
    pytest.param(
        ["family", "J", "1"], no_patch, 0, "J_1 = T(4,1) (unknot)\n", "",
        id="family-trivial-text",
    ),
    pytest.param(
        ["surgery-knot", "K", "2"], no_patch, 0,
        "K_2 bands leave the union of tangles 1/7 and 4/3\n"
        "normalized fraction: 4/-25\n"
        "even continued fraction: [-6,-4]\n"
        "determinant: 25\n"
        "slice family member: yes\n",
        "", id="surgery-knot-text",
    ),
    pytest.param(
        ["tangle", "cf", "2", "-9"], no_patch, 0, "[-4,-2]\n", "", id="tangle-cf-text",
    ),
    pytest.param(
        ["tangle", "apply", "1", "0", "-7", "1", "4", "3"], no_patch, 0, "4/-25\n", "",
        id="tangle-apply-text",
    ),
    pytest.param(
        ["jvc", "8", "9"], no_patch, 0,
        "sign sequence: [-,-,-,-]\n"
        "negative count: 4\n"
        "lower bound reaches pinch number - 1: no\n",
        "", id="jvc-text",
    ),
    pytest.param(
        ["report", "K", "1"], no_patch, 0,
        "K_1 = T(4,9)\n"
        "pinch number: 2\n"
        "band surgeries to a slice knot: 1\n"
        "slice knot fraction: 2/-9\n"
        "even continued fraction: [-4,-2]\n"
        "slice family recognized: yes\n"
        "negative pinch signs: 2 (equals pinch number - 1: no)\n",
        "", id="report-text",
    ),
    pytest.param(
        ["verify", "tables"], no_patch, 0,
        "K: 5/5 rows match, J: 4/4 rows match\nstatus: ok\n", "",
        id="verify-tables-text",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5"], no_patch, 0,
        "K: 5/5 rows match, J: 4/4 rows match\n"
        "pinch numbers and closed form: 9 sequences checked, 0 violations (n <= 5)\n"
        "four pinches J_n -> K_(n-2): 4 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 5, 0 collisions\n"
        "counterexample reports: 9 certified, 0 violations\n"
        "status: ok\n",
        "", id="verify-all-text",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5"], no_patch, 0,
        "four pinches J_n -> K_(n-2): 4 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 5, 0 collisions\n"
        "status: ok\n",
        "", id="verify-corollaries-text",
    ),
    pytest.param(
        ["jvc", "8", "9", "--quiet"], no_patch, 0, "", "", id="quiet",
    ),
    pytest.param(
        ["pinch-seq", "8", "25", "--quiet"], no_patch, 0, "", "", id="pinch-seq-quiet",
    ),
    pytest.param(
        ["pinch-move", "4", "6", "--json"], no_patch, 2,
        doc("pinch-move", "", '"error":"(4, 6) is not a coprime pair"', "error"),
        "pinchcalc: (4, 6) is not a coprime pair\n", id="error",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5", "--json"], corrupt_closed_form, 1,
        doc("verify", '"mode":"all","max_n":5',
            f"{TABLES},"
            '"closed_form":{"checked":9,"violations":['
            '{"member":"K_3","k":1,"closed_form":[0,1],"engine":[10,41]},'
            '{"member":"K_3","k":4,"closed_form":[0,1],"engine":[4,17]},'
            '{"member":"J_2","k":0,"closed_form":[0,1],"engine":[8,9]}]},'
            f"{COROLLARIES},{REPORTS_OK}", "violation"),
        "", id="closed-form-violation",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5"], corrupt_closed_form, 1,
        "K: 5/5 rows match, J: 4/4 rows match\n"
        "pinch numbers and closed form: 9 sequences checked, 3 violations (n <= 5)\n"
        "four pinches J_n -> K_(n-2): 4 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 5, 0 collisions\n"
        "counterexample reports: 9 certified, 0 violations\n"
        "status: violation\n",
        "", id="closed-form-violation-text",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "2", "--json"], k_2_pinches_twice(cli), 1,
        doc("verify", '"mode":"all","max_n":2',
            f"{TABLES},"
            '"closed_form":{"checked":2,"violations":['
            '{"member":"K_2","pinch_number":2,"expected":4}]},'
            '"j_to_k":{"checked":1,"violations":[]},'
            '"k_independence":{"checked":2,"violations":[]},'
            '"reports":{"checked":3,"violations":[]}', "violation"),
        "", id="pinch-number-violation",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "2"], k_2_pinches_twice(cli), 1,
        "K: 5/5 rows match, J: 4/4 rows match\n"
        "pinch numbers and closed form: 2 sequences checked, 1 violations (n <= 2)\n"
        "four pinches J_n -> K_(n-2): 1 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 2, 0 collisions\n"
        "counterexample reports: 3 certified, 0 violations\n"
        "status: violation\n",
        "", id="pinch-number-violation-text",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5", "--json"], reject_slice, 1,
        doc("verify", '"mode":"all","max_n":5',
            f"{TABLES},{CLOSED_FORM_OK},{COROLLARIES},"
            '"reports":{"checked":7,"violations":['
            f'{{"member":"K_2","error":"{SLICE_VIOLATION_K_2}"}},'
            '{"member":"J_4","error":"J_4: surgery fraction -8/49 expands to '
            '[-6,-8], not in the slice family"}]}', "violation"),
        "", id="reports-violation",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "5"], reject_slice, 1,
        "K: 5/5 rows match, J: 4/4 rows match\n"
        "pinch numbers and closed form: 9 sequences checked, 0 violations (n <= 5)\n"
        "four pinches J_n -> K_(n-2): 4 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 5, 0 collisions\n"
        "counterexample reports: 7 certified, 2 violations\n"
        "status: violation\n",
        "", id="reports-violation-text",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5", "--json"], fail_j_to_k_at_3, 1,
        doc("verify", '"mode":"corollaries","max_n":5',
            '"j_to_k":{"checked":4,"violations":[3]},'
            '"k_independence":{"checked":5,"violations":[]}', "violation"),
        "", id="j-to-k-violation",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5"], fail_j_to_k_at_3, 1,
        "four pinches J_n -> K_(n-2): 4 checked, 1 violations\n"
        "K sequences avoid other K members: m, n <= 5, 0 collisions\n"
        "status: violation\n",
        "", id="j-to-k-violation-text",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5", "--json"], collide_k_3_with_k_1, 1,
        doc("verify", '"mode":"corollaries","max_n":5',
            '"j_to_k":{"checked":4,"violations":[]},'
            '"k_independence":{"checked":5,"violations":[[3,1]]}', "violation"),
        "", id="k-independence-violation",
    ),
    pytest.param(
        ["verify", "corollaries", "--max-n", "5"], collide_k_3_with_k_1, 1,
        "four pinches J_n -> K_(n-2): 4 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 5, 1 collisions\n"
        "status: violation\n",
        "", id="k-independence-violation-text",
    ),
    pytest.param(
        ["verify", "tables", "--json"], mismatch_k_1_row, 1,
        doc("verify", '"mode":"tables","max_n":50',
            '"tables":{"K":{"matched":4,"total":5,"mismatches":['
            '{"n":1,"expected":[[4,9],[2,5],[0,3]],"got":[[4,9],[2,5],[0,1]]}]},'
            '"J":{"matched":4,"total":4,"mismatches":[]}}', "violation"),
        "", id="tables-violation",
    ),
    pytest.param(
        ["verify", "tables"], mismatch_k_1_row, 1,
        "K: 4/5 rows match, J: 4/4 rows match\nstatus: violation\n",
        "", id="tables-violation-text",
    ),
    pytest.param(
        ["report", "K", "2", "--json"], reject_slice, 1,
        doc("report", "", f'"violation":"{SLICE_VIOLATION_K_2}"', "violation"),
        f"pinchcalc: {SLICE_VIOLATION_K_2}\n", id="report-violation",
    ),
    pytest.param(
        ["report", "K", "2", "--json"], k_2_pinches_twice(criteria), 1,
        doc("report", "", '"violation":"K_2: pinch number 2, expected 4"', "violation"),
        "pinchcalc: K_2: pinch number 2, expected 4\n", id="report-pinch-violation",
    ),
    pytest.param(
        ["report", "K", "2"], k_2_pinches_twice(criteria), 1,
        "", "pinchcalc: K_2: pinch number 2, expected 4\n",
        id="report-pinch-violation-text",
    ),
]


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenJson:
    @pytest.mark.parametrize("argv, patch, code, out, err", GOLDEN)
    def test_document(self, capsys, monkeypatch, argv, patch, code, out, err):
        patch(monkeypatch)
        assert run_cli(capsys, *argv) == (code, out, err)


class TestTextOutput:
    def test_pinch_seq_lists_chain(self, capsys):
        code, out, _ = run_cli(capsys, "pinch-seq", "8", "25")
        assert code == 0
        for pair in ["(8,25)", "(6,19)", "(4,13)", "(2,7)", "(0,1)"]:
            assert pair in out
        assert "pinch number: 4" in out
        assert "t=" in out and "h=" in out and "sign=" in out

    def test_pinch_number(self, capsys):
        code, out, _ = run_cli(capsys, "pinch-number", "20", "81")
        assert code == 0 and out.strip() == "10"

    def test_verify_tables_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "tables")
        assert code == 0
        assert "K: 5/5 rows match, J: 4/4 rows match" in out

    def test_tangle_cf(self, capsys):
        code, out, _ = run_cli(capsys, "tangle", "cf", "2", "-9")
        assert code == 0 and out.strip() == "[-4,-2]"

    def test_tangle_apply(self, capsys):
        code, out, _ = run_cli(capsys, "tangle", "apply", "1", "0", "-7", "1", "4", "3")
        assert code == 0 and out.strip() == "4/-25"

    def test_surgery_knot(self, capsys):
        code, out, _ = run_cli(capsys, "surgery-knot", "K", "2")
        assert code == 0
        assert "4/-25" in out and "[-6,-4]" in out and "25" in out

    def test_family_trivial_flag(self, capsys):
        code, out, _ = run_cli(capsys, "family", "J", "1")
        assert code == 0 and "unknot" in out


class TestHelpAndUsage:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_command_help(self, capsys, command):
        code, out, _ = run_cli(capsys, *command.split(), "--help")
        assert code == 0
        assert out.startswith(f"usage: pinchcalc {command} ")

    def test_help_wraps_to_the_width_of_each_call(self, capsys, monkeypatch):
        # one parser serves every call; help is still formatted per call
        outs = []
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run_cli(capsys, "--help")
            assert (code, out) == (0, cli.build_parser().format_help())
            outs.append(out)
        assert outs[0] != outs[1]

    # only the error line: argparse words the usage text by Python version
    @pytest.mark.parametrize("argv, error", [
        (["tangle"], "pinchcalc tangle: error: the following arguments are "
                     "required: tangle_op"),
        (["verify", "bogus"], "pinchcalc verify: error: argument mode: "
                              "invalid choice: 'bogus'"),
    ], ids=["tangle-op", "verify-mode"])
    def test_usage_error_names_argument(self, capsys, argv, error):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(error)


class TestFractionFormat:
    def test_sign_moves_to_denominator(self):
        assert fmt_fraction(ReducedFraction(-2, 9)) == "2/-9"
        assert fmt_fraction(ReducedFraction(2, 9)) == "2/9"
        assert fmt_fraction(ReducedFraction(1, 0)) == "1/0"
        assert fmt_fraction(ReducedFraction(0, 7)) == "0/1"


class TestExitCodes:
    def test_domain_errors_exit_2(self, capsys):
        for argv in (
            ["pinch-move", "0", "1"],       # unknot
            ["pinch-move", "4", "6"],       # not coprime
            ["jvc", "9", "4"],              # parity precondition
            ["family", "K", "0"],           # invalid member
            ["surgery-knot", "J", "1"],     # trivial member
            ["tangle", "cf", "1", "3"],     # no even expansion
            ["tangle", "cf", "5", "3"],     # out of domain
            ["tangle", "apply", "1", "0", "0", "2", "1", "2"],  # det != 1
            ["verify", "all", "--max-n", "1"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert err != ""

    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2
        assert run_cli(capsys, "pinch-move", "four", "9")[0] == 2
        assert run_cli(capsys, "pinch-move", "4")[0] == 2

    def test_violation_exit_1(self, capsys, monkeypatch):
        # force a fake violation to exercise the exit contract
        monkeypatch.setitem(cli.REFERENCE_ROWS_K, 1, [(4, 9), (2, 5), (0, 3)])
        code, out, _ = run_cli(capsys, "verify", "tables")
        assert code == 1
        assert "K: 4/5 rows match" in out

    def test_internal_error_exit_3(self, capsys, monkeypatch):
        # a pinch sequence outrunning its cap is a bug, not a bad input
        monkeypatch.setattr(pinch, "iteration_cap", lambda k: 0)
        message = "T(4,9) still nontrivial after 0 pinches"
        code, out, err = run_cli(capsys, "pinch-seq", "4", "9", "--json")
        assert code == 3
        assert out == doc("pinch-seq", "", f'"error":"{message}"', "error")
        assert err == f"pinchcalc: {message}\n"
        # the text is formatted lazily, but the chain is checked before it
        assert run_cli(capsys, "pinch-seq", "4", "9") == (3, "", err)
        assert run_cli(capsys, "pinch-seq", "4", "9", "--quiet") == (3, "", "")

    def test_json_error_document(self, capsys):
        code, out, err = run_cli(capsys, "pinch-move", "4", "6", "--json")
        assert code == 2
        doc = json.loads(out)
        assert doc["status"] == "error"
        assert "coprime" in doc["results"]["error"]


class TestSubprocessHarness:
    # child interpreters import the same pinchcalc as this test run
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def _run(self, *argv, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "pinchcalc", *argv],
            capture_output=True, text=True, env=self.env, timeout=timeout,
        )

    def test_success(self):
        proc = self._run("pinch-number", "4", "9")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2"

    def test_pinch_number_is_bounded_work(self):
        # T(10^18, 10^18 + 1) is one run of 5 * 10^17 moves
        p = 10**18
        proc = self._run("pinch-number", str(p), str(p + 1), "--json", timeout=10)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"] == {
            "start": [p, p + 1], "pinch_number": 5 * 10**17,
        }

    def test_report_is_bounded_work(self):
        # K_n is one run of 2n moves; the certificate reads its count and sign
        n = 10**12
        proc = self._run("report", "K", str(n), "--json", timeout=10)
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert results["pinch_number"] == results["jvc_negative_count"] == 2 * n
        assert results["band_count"] == 2 * n - 1

    @pytest.mark.parametrize("command, cap_mib, form, p", [
        ("jvc", 1024, ["--json"], 10**18),
        ("jvc", 1024, [], 10**18),
        # each move is a line of text; the smaller cap keeps the attempt near 2 s
        ("pinch-seq", 128, ["--json"], 10**18),
        ("pinch-seq", 128, [], 10**18),
        # 5 * 10^19 signs: more than a string can even address
        ("jvc", 1024, ["--json"], 10**20),
        ("jvc", 1024, [], 10**20),
    ], ids=["json", "text", "pinch-seq-json", "pinch-seq-text",
            "jvc-past-index-json", "jvc-past-index-text"])
    def test_out_of_memory_is_an_error(self, command, cap_mib, form, p):
        # 5 * 10^17 printed signs or moves cannot be held: an error (2), not
        # a violation (1), and no output but the message and, with --json,
        # the error document.  The address-space cap keeps the attempt small
        resource = pytest.importorskip("resource")
        cap = (cap_mib << 20, cap_mib << 20)
        proc = subprocess.run(
            [sys.executable, "-m", "pinchcalc", command, str(p), str(p + 1), *form],
            capture_output=True, text=True, env=self.env, timeout=10,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, cap),
        )
        assert proc.returncode == 2
        assert proc.stderr == "pinchcalc: out of memory\n"
        if form:
            assert proc.stdout == doc(command, "", '"error":"out of memory"', "error")
        else:
            assert proc.stdout == ""

    def test_verify_is_bounded_work(self):
        # refused before any section runs; in a child, since without the
        # bound the sections would run for months
        proc = self._run("verify", "all", "--max-n", "1000000000", timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "pinchcalc: max_n 1000000000 is over the verify bound 3000\n")

    def test_domain_error(self):
        proc = self._run("pinch-move", "2", "4")
        assert proc.returncode == 2
        assert proc.stderr != ""

    def test_usage_error(self):
        proc = self._run("bogus")
        assert proc.returncode == 2

    def test_json_pipe(self):
        proc = self._run("report", "J", "2", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["results"]["slice_cf"] == [-2, -4]
        assert doc["results"]["band_count"] == 3

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_ends_quietly(self, form):
        # as `pinch-seq ... | head -c 100`: the reader closes the pipe on a
        # 100,001-move chain.  SIGPIPE ends the child, with no traceback and
        # no exit 1, which would read as a violation
        argv = [sys.executable, "-m", "pinchcalc", "pinch-seq", "1000003", "2000001"]
        with subprocess.Popen([*argv, *form], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=self.env) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=10), stderr) == (-signal.SIGPIPE, b"")

    @pytest.mark.parametrize("script, code, line", [
        (["termination_scan.py", "--limit", "60"], 0,
         "coprime pairs checked: 1042 (2 <= p <= q <= 60)"),
        (["print_pinch_tables.py", "--max-n", "2"], 0,
         "K_1 = (4,9) -> (2,5) -> (0,1)   [2 pinches]"),
        (["cli_digests.py"], 0, CLI_DIGEST_PINCH_SEQ),
        # about 3e9 pairs, refused before the walk starts
        (["termination_scan.py", "--limit", "100000"], 2,
         "termination_scan.py: error: limit 100000 is over the sweep bound 23169"),
    ], ids=["termination-scan", "pinch-tables", "cli-digests",
            "termination-scan-refused"])
    def test_script(self, script, code, line):
        scripts = Path(__file__).parents[1] / "scripts"
        proc = subprocess.run(
            [sys.executable, str(scripts / script[0]), *script[1:]],
            capture_output=True, text=True, env=self.env,
        )
        assert proc.returncode == code
        assert line in (proc.stdout if code == 0 else proc.stderr).splitlines()

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the Linux VmHWM peak")
    def test_sweep_memory_is_linear(self):
        # an O(limit^2) lengths table is 18 MB at limit 3000.  The child reads
        # its own peak RSS, VmHWM, in KiB: ru_maxrss would carry this
        # process's peak over exec, and a tracemalloc peak would trace
        # millions of int allocations and take 20 times as long
        script = (
            "from pinchcalc.pinch import sweep_termination\n"
            "def peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(line.split()[1]) for line in f\n"
            "                    if line.startswith('VmHWM:'))\n"
            "before = peak()\n"
            "sweep_termination(3000)\n"
            "print(peak() - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=self.env, check=True,
        )
        assert int(proc.stdout) < 2048

    @pytest.mark.parametrize("patch, call", [
        ("pinch.pinch_witnesses = lambda p, q: (0, 0)", "sweep_termination(10)"),
        # the walk's witnesses on the last column differ from these
        ("pinch.pinch_witnesses = lambda p, q: (1, 1)", "sweep_termination(10)"),
        ("pinch.pinch_witnesses = lambda p, q: (p / 2, q / 2)",
         "pinch_move(TorusKnotParams(4, 9))"),
        ("pinch.pinch_witnesses = lambda p, q: (0, 0)",
         "pinch_runs(TorusKnotParams(4, 9))"),
        # not the witnesses of T(4, 9): its one move lands on T(0, 3)
        ("", "list(PinchRun(4, 9, 2, 3, 1, 1).rows())"),
        # its one move lands on T(2, 7), a coprime pair, but ph - qt = -5
        ("", "list(PinchRun(4, 9, 1, 1, 1, 1).rows())"),
    ], ids=["sweep-zero-witnesses", "sweep-tree-witnesses", "pinch-move-sign",
            "pinch-runs-witnesses", "run-rows-coprime", "run-rows-witnesses"])
    def test_broken_invariant_raises_under_O(self, patch, call):
        # python -O strips assert statements; the invariants must still hold
        script = (
            "from pinchcalc import pinch\n"
            "from pinchcalc.pinch import *\n"
            f"{patch}\n"
            f"{call}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=self.env,
        )
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("RuntimeError: ")


class TestPackage:
    """Each name has one import path, its module; the package binds none."""

    def test_binds_no_function_or_class(self):
        bound = [name for name, value in vars(pinchcalc).items()
                 if inspect.isfunction(value) or inspect.isclass(value)]
        assert bound == []

    def test_importing_a_module_loads_only_it(self):
        script = ("import sys, pinchcalc.arith\n"
                  "print(*sorted(n for n in sys.modules"
                  " if n.partition('.')[0] == 'pinchcalc'))")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=TestSubprocessHarness.env, check=True,
        )
        assert proc.stdout.split() == ["pinchcalc", "pinchcalc.arith"]


class TestVerifyAll:
    def test_document_shape(self):
        doc = verify_all(5)
        assert doc["status"] == "ok"
        assert set(doc["results"]) == {
            "tables", "closed_form", "j_to_k", "k_independence", "reports",
        }

    def test_modes(self):
        assert set(verify_all(5, "tables")["results"]) == {"tables"}
        assert set(verify_all(5, "corollaries")["results"]) == {
            "j_to_k", "k_independence",
        }
        with pytest.raises(ValueError, match="'bogus'"):
            verify_all(5, "bogus")

    def test_rejects_small_range(self):
        with pytest.raises(ValueError):
            verify_all(1)

    def test_refuses_range_over_bound(self, monkeypatch):
        # `verify all` costs about N^2: about 9 s at N = 3000
        assert cli.VERIFY_MAX_N == 3000
        monkeypatch.setattr(cli, "VERIFY_MAX_N", 10)
        assert verify_all(10)["status"] == "ok"
        # every mode is refused, tables too, though it does not read N
        for mode in cli.MODES:
            with pytest.raises(ValueError, match="max_n 11 is over the verify bound 10"):
                verify_all(11, mode)

    def test_closed_form_builds_one_knot_per_member(self, monkeypatch):
        built = []
        check = TorusKnotParams.__post_init__

        def counted(knot):
            built.append((knot.p, knot.q))
            check(knot)

        monkeypatch.setattr(TorusKnotParams, "__post_init__", counted)
        section = cli.check_pinch_numbers_and_closed_form(30)
        assert section == {"checked": 59, "violations": []}
        # each member's start, K_1..K_30 then J_2..J_30, and no knot per step
        assert len(built) == 59
        assert built[0] == (4, 9) and built[-1] == (120, 59 * 59)

    def test_a_j_table_mismatch_is_a_violation(self, monkeypatch):
        monkeypatch.setitem(cli.REFERENCE_ROWS_J, 2, [(8, 9), (0, 1)])
        doc = verify_all(2, "tables")
        assert doc["status"] == "violation"
        assert [m["n"] for m in doc["results"]["tables"]["J"]["mismatches"]] == [2]
