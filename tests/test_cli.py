import ast
import inspect
import json
import os
import runpy
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinchcalc
from pinchcalc import cli, criteria, pinch, tangles
from pinchcalc.cli import cli_main, fmt_fraction, verify_all
from pinchcalc.arith import EvenCF, ReducedFraction, cf_even_expand
from pinchcalc.criteria import CounterexampleReport, surgery_result_knot
from pinchcalc.families import (
    FamilyId, closed_form_step, family_knot, verify_j_to_k, verify_k_independence,
)
from pinchcalc.pinch import PinchRun, TorusKnotParams

from oracles import CHILD_ENV, bad_runs, count_knot_builds, count_witness_calls, move_chain


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
GOLDEN_REPORT_J_2 = doc(
    "report", '"family":"J","n":2',
    '"family":"J","n":2,"knot":[8,9],"pinch_number":4,'
    '"band_count":3,"slice_fraction":[-4,9],"slice_cf":[-2,-4],'
    '"slice_recognized":true,"jvc_negative_count":4,'
    '"jvc_equals_pinch_minus_one":false',
)
# scripts/cli_digests.py: every line that does not depend on the interpreter,
# all but the first (which names it), "verify usage" and "usage" (argparse
# words its usage errors and help differently from one Python release to
# another)
CLI_DIGESTS = (
    "2323d1c7bd9755c35f772d76c788b6b396cb8661d34c3d3105082fd4bd08b720  "
    "pinch-move  (578 calls)\n"
    "ebf9951823aae54643fa13e6c08f593f49f26db08370a941c8fa3b4af2a5ea89  "
    "pinch-seq  (578 calls)\n"
    "14a4f6f2dd8ff335c48dc842abbb880c99ee0e8f023b0710ffdb2b9c632efaa2  "
    "pinch-number  (578 calls)\n"
    "e5c42f246a596da7b4fcfcdc7e8959530fca633df5fd25844d6a203b7f3ca2b4  "
    "family  (156 calls)\n"
    "3d8aa8222be7deae27ea27b6cb4f5824533de91b1ea6200d7f167dd645d4466a  "
    "surgery-knot  (156 calls)\n"
    "6fc628122233f93d191db11104443adf10b0efc992b28075606111938737fbd2  "
    "tangle cf  (86 calls)\n"
    "b491d3906cc26c85bddd981d9bb94be5500535d356cea66070d9ee6d90428de7  "
    "tangle apply  (18 calls)\n"
    "e593e3c0e54e08131a78773257a2ac752af79cebcf04615d92ea3fde2d91b706  "
    "jvc  (694 calls)\n"
    "a9cf920d176d77505ad687ab474576bcca1eaf7de9195a959f8d5159fb96e359  "
    "report  (156 calls)\n"
    "a42e6d96c6dc8b0e2c1cf5aa6602d9a3495c7160c761183a84c907e78262e3f5  "
    "verify  (36 calls)\n"
    "cd3d3cce6b82da5a1d1e8e1b05ceea4d6b36baa86236c2a83bb7b07cb1ad2dfc  "
    "argv forms  (36 calls)\n"
    "3e24b917c18b30002b967ba30aa37b17d5a56b33ab9314d689202a23a74ea181  "
    "print_pinch_tables.py --max-n 12\n"
    "588453235f84dcfd81f3ca8148b11823935c14035072988ab826cf2c07f50bc2  "
    "sweep_termination(3000)\n"
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
# the tables when K_2 is T(8, 27): its chain is diffed against K_2's row.
# The member table holds the same knot, so reports certifies it too
TABLES_K_2_PINCHES_TWICE = (
    '"tables":{"K":{"matched":4,"total":5,"mismatches":['
    '{"n":2,"expected":[[8,25],[6,19],[4,13],[2,7],[0,1]],'
    '"got":[[8,27],[2,7],[0,1]]}]},'
    '"J":{"matched":4,"total":4,"mismatches":[]}}'
)
SLICE_VIOLATION_K_2 = (
    "K_2: surgery fraction -4/25 expands to [-6,-4], not in the slice family"
)
START_VIOLATION_K_2 = "K_2: chain starts at T(25,8), not at T(8,25)"


def corrupt_closed_form(monkeypatch):
    """Closed form wrong at K_3 steps 1 and 4 and at J_2 step 0."""
    real = cli.closed_form_step

    def fake(fid, k):
        if (str(fid), k) in {("K_3", 1), ("K_3", 4), ("J_2", 0)}:
            return (0, 1)
        return real(fid, k)

    monkeypatch.setattr(cli, "closed_form_step", fake)


def reject_slice(monkeypatch):
    """Slice recognition fails for K_2 ([-6,-4]) and J_4 ([-6,-8])."""
    real = criteria.is_slice_family
    monkeypatch.setattr(
        criteria, "is_slice_family",
        lambda cf: cf.coeffs not in {(-6, -4), (-6, -8)} and real(cf),
    )


def fail_j_to_k_at_3(monkeypatch):
    """Four pinches from J_3 miss K_1 = T(4, 9), the target of J_3 alone."""
    real = cli.verify_j_to_k
    monkeypatch.setattr(cli, "verify_j_to_k",
                        lambda runs, target: target != (4, 9) and real(runs, target))


def collide_k_3_with_k_1(monkeypatch):
    """The chain of K_3 passes through K_1."""
    monkeypatch.setattr(cli, "verify_k_independence", lambda k_chains, max_n: [(3, 1)])


def mismatch_k_1_row(monkeypatch):
    """The frozen K_1 row ends at (0, 3), not the unknot."""
    monkeypatch.setitem(cli.REFERENCE_ROWS_K, 1, [(4, 9), (2, 5), (0, 3)])


def k_2_pinches_twice(monkeypatch):
    """K_2 is the knot T(8, 27), of pinch number 2, not 4."""
    real = cli.family_knot
    monkeypatch.setattr(
        cli, "family_knot",
        lambda fid: TorusKnotParams(8, 27) if str(fid) == "K_2" else real(fid),
    )


def k_2_swapped(monkeypatch):
    """K_2 is T(25, 8): the same knot and pinch number, p odd and q even."""
    real = cli.family_knot
    monkeypatch.setattr(cli, "family_knot", lambda fid: (
        real(fid).swap() if str(fid) == "K_2" else real(fid)))


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
        ["report", "J", "2", "--json"], no_patch, 0, GOLDEN_REPORT_J_2, "",
        id="report-J-2",
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
        ["verify", "all", "--max-n", "2", "--json"], k_2_pinches_twice, 1,
        doc("verify", '"mode":"all","max_n":2',
            f"{TABLES_K_2_PINCHES_TWICE},"
            '"closed_form":{"checked":2,"violations":['
            '{"member":"K_2","pinch_number":2,"expected":4}]},'
            '"j_to_k":{"checked":1,"violations":[]},'
            '"k_independence":{"checked":2,"violations":[]},'
            '"reports":{"checked":2,"violations":['
            '{"member":"K_2","error":"K_2: pinch number 2, expected 4"}]}', "violation"),
        "", id="pinch-number-violation",
    ),
    pytest.param(
        ["verify", "all", "--max-n", "2"], k_2_pinches_twice, 1,
        "K: 4/5 rows match, J: 4/4 rows match\n"
        "pinch numbers and closed form: 2 sequences checked, 1 violations (n <= 2)\n"
        "four pinches J_n -> K_(n-2): 1 checked, 0 violations\n"
        "K sequences avoid other K members: m, n <= 2, 0 collisions\n"
        "counterexample reports: 2 certified, 1 violations\n"
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
        ["report", "K", "2", "--json"], k_2_pinches_twice, 1,
        doc("report", "", '"violation":"K_2: pinch number 2, expected 4"', "violation"),
        "pinchcalc: K_2: pinch number 2, expected 4\n", id="report-pinch-violation",
    ),
    pytest.param(
        ["report", "K", "2"], k_2_pinches_twice, 1,
        "", "pinchcalc: K_2: pinch number 2, expected 4\n",
        id="report-pinch-violation-text",
    ),
    # a member whose chain starts off its knot is a violation in every
    # section, which all run, and in report alike, not an error (2)
    pytest.param(
        ["verify", "all", "--max-n", "2", "--json"], k_2_swapped, 1,
        doc("verify", '"mode":"all","max_n":2',
            '"tables":{"K":{"matched":4,"total":5,"mismatches":['
            '{"n":2,"expected":[[8,25],[6,19],[4,13],[2,7],[0,1]],'
            '"got":[[25,8],[19,6],[13,4],[7,2],[1,0]]}]},'
            '"J":{"matched":4,"total":4,"mismatches":[]}},'
            '"closed_form":{"checked":3,"violations":['
            '{"member":"K_2","k":0,"closed_form":[8,25],"engine":[25,8]},'
            '{"member":"K_2","k":1,"closed_form":[6,19],"engine":[19,6]},'
            '{"member":"K_2","k":2,"closed_form":[4,13],"engine":[13,4]},'
            '{"member":"K_2","k":3,"closed_form":[2,7],"engine":[7,2]},'
            '{"member":"K_2","k":4,"closed_form":[0,1],"engine":[1,0]}]},'
            '"j_to_k":{"checked":1,"violations":[]},'
            '"k_independence":{"checked":2,"violations":[]},'
            '"reports":{"checked":2,"violations":['
            f'{{"member":"K_2","error":"{START_VIOLATION_K_2}"}}]}}', "violation"),
        "", id="start-violation",
    ),
    pytest.param(
        ["report", "K", "2", "--json"], k_2_swapped, 1,
        doc("report", "", f'"violation":"{START_VIOLATION_K_2}"', "violation"),
        f"pinchcalc: {START_VIOLATION_K_2}\n", id="report-start-violation",
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


# what a results dict holds: ints, bools, strings, lists, knots, fractions and
# even continued fractions; no string is "\0", the slot to_json splits on
strings = st.text(st.characters(exclude_characters="\0"), max_size=8)
values = st.recursive(
    st.one_of(
        st.integers(), st.booleans(), strings,
        st.builds(lambda p, k: TorusKnotParams(p, k * p + 1),
                  st.integers(0, 10**20), st.integers(0, 10**20)),
        st.builds(ReducedFraction, st.integers(), st.integers(1)),
        st.lists(st.integers().filter(bool).map(lambda a: 2 * a),
                 min_size=1, max_size=4).map(EvenCF),
    ),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12,
)


def compact(value):
    return json.dumps(value, separators=(",", ":"), default=cli._json_value)


class TestToJson:
    @given(st.data())
    def test_splice_equals_one_plain_encoding(self, data):
        # 0, 1 or 2 values of the results, at any places, given as JSONText:
        # each one's compact JSON, cut into chunks at random points
        results = data.draw(st.dictionaries(strings, values, max_size=6))
        keys = data.draw(st.sets(st.sampled_from(list(results)), max_size=2)
                         if results else st.just(set()))
        spliced = dict(results)
        for key in keys:
            text = compact(results[key])
            cuts = sorted(data.draw(st.lists(st.integers(0, len(text)), max_size=4)))
            spliced[key] = cli.JSONText(
                iter([text[i:j] for i, j in zip([0, *cuts], [*cuts, len(text)])]))
        inputs = data.draw(st.dictionaries(strings, st.integers(), max_size=2))
        assert cli.to_json(cli._document("cmd", inputs, spliced, "ok")) == compact(
            cli._document("cmd", inputs, results, "ok"))

    @pytest.mark.parametrize("results, message", [
        ({"steps": [cli.JSONText(["[]"])]}, "JSON text slots: 1, JSONText values: 0"),
        ({"sign": "\0", "steps": cli.JSONText(["[]"])},
         "JSON text slots: 2, JSONText values: 1"),
        # a value _json_value has no form for
        ({"x": object()}, "object has no JSON form"),
    ], ids=["in-a-list", "beside-a-nul-string", "no-json-form"])
    def test_a_slot_without_its_value_is_an_internal_error(
            self, capsys, monkeypatch, results, message):
        _, help_text, arguments = cli.COMMANDS["pinch-number"]
        monkeypatch.setitem(cli.COMMANDS, "pinch-number", (
            lambda p, q: (results, [], "ok"), help_text, arguments))
        assert run_cli(capsys, "pinch-number", "4", "9", "--json") == (
            3, doc("pinch-number", "", f'"error":"{message}"', "error"),
            f"pinchcalc: {message}\n")


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


# ints as int() reads them (a sign, leading zeros, an underscore, a space),
# a bad int, one past the digit limit, and -1_0, which int() reads but
# argparse takes for an option
INT_WORDS = ["3", "-1", "-0", "007", "+5", "1_0", " 5", "x", "1" * 4301, "-1_0"]
# tokens that only argparse reads
ODD_TOKENS = ["-", "--", "--js", "--json=1", "-h"]
FLAGS = list(cli.FLAGS)
COMMAND_WORDS = sorted({word for command in cli.COMMANDS for word in command.split()})


@st.composite
def near_plain_argv(draw):
    """A command's words (or a two-word command as one token, which
    argparse refuses) and a word for each of its arguments, give or take
    one, with flags and other tokens anywhere."""
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = draw(st.sampled_from([command.split(), [command]]))
    for _, choices, *_ in cli.COMMANDS[command][2]:
        argv.append(draw(st.sampled_from([*choices, "L"] if choices else INT_WORDS)))
    arity = draw(st.sampled_from(["same"] * 4 + ["fewer", "more"]))
    if arity != "same":
        argv = argv[:-1] if arity == "fewer" else [*argv, "3"]
    for token in draw(st.lists(st.sampled_from(FLAGS * 4 + ODD_TOKENS), max_size=4)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


class TestPlainArgs:
    """_plain_args against its oracle, argparse."""

    @settings(max_examples=500)
    @given(st.one_of(
        near_plain_argv(),
        st.lists(st.sampled_from(COMMAND_WORDS + ["K", "J", "L"] + INT_WORDS
                                 + ODD_TOKENS + FLAGS), max_size=9)))
    def test_agrees_with_argparse(self, argv):
        plain = cli._plain_args(argv)
        if plain is not None:
            try:
                parsed = cli._parsed_args(argv)
            except SystemExit:
                pytest.fail(f"argparse refuses {argv}, which _plain_args takes")
            assert plain == parsed
            # the order of the arguments is the order of the document's inputs
            assert list(plain[1].items()) == list(parsed[1].items())

    # each command in its canonical form: all but verify take the fast
    # path, so that it cannot go dead unnoticed
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_takes_every_command_but_verify(self, command):
        argv = command.split()
        for name, choices, *_ in cli.COMMANDS[command][2]:
            if name[0] != "-":
                argv.append(choices[0] if choices else "3")
        assert (cli._plain_args(argv) is None) == (command == "verify")

    def test_reads_sys_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pinchcalc", "pinch-number", "4", "9"])
        assert cli_main() == 0
        assert capsys.readouterr() == ("2\n", "")


class TestFractionFormat:
    def test_sign_moves_to_denominator(self):
        assert fmt_fraction(ReducedFraction(-2, 9)) == "2/-9"
        assert fmt_fraction(ReducedFraction(2, 9)) == "2/9"
        assert fmt_fraction(ReducedFraction(1, 0)) == "1/0"
        assert fmt_fraction(ReducedFraction(0, 7)) == "0/1"


class TestExitCodes:
    def test_usage_errors_exit_2(self, capsys):
        assert run_cli(capsys, "no-such-command")[0] == 2
        assert run_cli(capsys, "pinch-move", "four", "9")[0] == 2
        assert run_cli(capsys, "pinch-move", "4")[0] == 2

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
        # pinch_number reads the continued fraction, not the chain, and
        # checks its count against the same cap
        message = "T(4,9) has pinch number 2, over its cap"
        err = f"pinchcalc: {message}\n"
        assert run_cli(capsys, "pinch-number", "4", "9", "--json") == (
            3, doc("pinch-number", "", f'"error":"{message}"', "error"), err)
        assert run_cli(capsys, "pinch-number", "4", "9") == (3, "", err)

    def test_a_bad_run_exits_3(self, capsys, monkeypatch):
        # pinch-seq reads its chain from pinch_sequence, so a run that
        # pinch.pinch_runs should never give is refused as a bug
        monkeypatch.setattr(pinch, "pinch_runs", bad_runs)
        message = "T(4,9): (1, 1) do not start a run of 1 moves"
        err = f"pinchcalc: {message}\n"
        assert run_cli(capsys, "pinch-seq", "4", "9", "--json") == (
            3, doc("pinch-seq", "", f'"error":"{message}"', "error"), err)
        assert run_cli(capsys, "pinch-seq", "4", "9") == (3, "", err)

    @pytest.mark.parametrize("exc, message", [
        (ZeroDivisionError("division by zero"), "division by zero"),
        # str(LookupError()) is empty, so the message is the exception's type
        (LookupError(), "LookupError"),
    ], ids=["zero-division", "empty-message"])
    def test_any_other_exception_exits_3(self, capsys, monkeypatch, exc, message):
        # not only a RuntimeError: any fault but bad input is an internal bug
        def fault(fid, k):
            raise exc

        monkeypatch.setattr(cli, "closed_form_step", fault)
        code, out, err = run_cli(capsys, "verify", "all", "--max-n", "3", "--json")
        assert code == 3
        assert out == doc("verify", "", f'"error":"{message}"', "error")
        assert err == f"pinchcalc: {message}\n"
        assert run_cli(capsys, "verify", "all", "--max-n", "3") == (3, "", err)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no limit on int-to-str digits")
    def test_output_wider_than_the_digit_limit(self, capsys):
        # K_n for n = 10^2999 is T(4 * 10^2999, 4 * 10^5998 + 4 * 10^2999 + 1)
        limit = sys.get_int_max_str_digits()
        n = "1" + "0" * 2999
        zeros = "0" * 2998
        assert run_cli(capsys, "family", "K", n) == (
            0, f"K_{n} = T(4{zeros}0,4{zeros}4{zeros}1)\n", "")
        assert sys.get_int_max_str_digits() == limit
        # the argument is still bounded by the limit
        assert run_cli(capsys, "family", "K", "1" * 4301)[0] == 2
        assert sys.get_int_max_str_digits() == limit


class TestSubprocessHarness:
    def _run(self, *argv, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "pinchcalc", *argv],
            capture_output=True, text=True, env=CHILD_ENV, timeout=timeout,
        )

    # main() passes cli_main's code to sys.exit; GOLDEN pins every code and
    # output in process, so one row each for 0 and 2 suffices here
    @pytest.mark.parametrize("argv, code, out", [
        (["pinch-move", "2", "4"], 2, ""),
        (["report", "J", "2", "--json"], 0, GOLDEN_REPORT_J_2),
    ], ids=["domain-error", "json-pipe"])
    def test_exit_code_and_stdout(self, argv, code, out):
        proc = self._run(*argv)
        assert (proc.returncode, proc.stdout) == (code, out)
        assert (proc.stderr == "") == (code == 0)

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
            capture_output=True, text=True, env=CHILD_ENV, timeout=10,
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

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe_ends_quietly(self, form):
        # as `pinch-seq ... | head -c 100`: the reader closes the pipe on a
        # 100,001-move chain.  SIGPIPE ends the child, with no traceback and
        # no exit 1, which would read as a violation
        argv = [sys.executable, "-m", "pinchcalc", "pinch-seq", "1000003", "2000001"]
        with subprocess.Popen([*argv, *form], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=CHILD_ENV) as proc:
            proc.stdout.read(100)
            proc.stdout.close()
            stderr = proc.stderr.read()
            assert (proc.wait(timeout=10), stderr) == (-signal.SIGPIPE, b"")

    @pytest.mark.parametrize("patch, script, code, lines", [
        (None, ["termination_scan.py", "--limit", "60"], 0,
         "coprime pairs checked: 1042 (2 <= p < q <= 60)"),
        (None, ["print_pinch_tables.py", "--max-n", "2"], 0,
         "K_1 = (4,9) -> (2,5) -> (0,1)   [2 pinches]"),
        # the whole stdout: a script that ignored --family would add K lines
        (None, ["print_pinch_tables.py", "--family", "J", "--max-n", "2"], 0,
         ["J_2 = (8,9) -> (6,7) -> (4,5) -> (2,3) -> (0,1)   [4 pinches]", ""]),
        (None, ["cli_digests.py"], 0, CLI_DIGESTS),
        # about 3e9 pairs, refused before the walk starts
        (None, ["termination_scan.py", "--limit", "100000"], 2,
         "termination_scan.py: error: limit 100000 is over the sweep bound 23169"),
        # some 2e10 knots, refused before the first table
        (None, ["print_pinch_tables.py", "--max-n", "100000"], 2,
         "print_pinch_tables.py: error: max_n 100000 is over the verify bound 3000"),
        # a run that its readers refuse is a bug (3), not a violation (1)
        (("pinch_runs", bad_runs), ["print_pinch_tables.py", "--max-n", "2"], 3,
         "print_pinch_tables.py: internal error: "
         "T(4,9): (1, 1) do not start a run of 1 moves"),
        # a failed self-check of the walk is a bug (3), not a violation (1)
        (("pinch_witnesses", lambda p, q: (1, 1)),
         ["termination_scan.py", "--limit", "10"], 3,
         "termination_scan.py: internal error: T(9, 10): tree witnesses (8, 9)"
         " or pinch number 4 differ from the engines'"),
        # and so is any other exception
        (("pinch_number", lambda k: 1 // 0),
         ["termination_scan.py", "--limit", "10"], 3,
         "termination_scan.py: internal error: integer division or modulo by zero"),
        # a pair past its cap is a violation (1), listed on stdout
        (("sweep_termination", lambda limit: (3, [(4, 9, 5, 3)])),
         ["termination_scan.py", "--limit", "10"], 1,
         "cap violations: 1\n  (4,9): length 5 > cap 3"),
    ], ids=["termination-scan", "pinch-tables", "pinch-tables-family", "cli-digests",
            "termination-scan-refused", "pinch-tables-refused",
            "pinch-tables-internal-error",
            "termination-scan-internal-error",
            "termination-scan-any-exception", "termination-scan-violation"])
    def test_script(self, capsys, monkeypatch, patch, script, code, lines):
        # in process, as __main__; cli_digests.py imports print_pinch_tables
        # from beside it, and sets COLUMNS, which monkeypatch then restores
        scripts = Path(__file__).parents[1] / "scripts"
        monkeypatch.syspath_prepend(str(scripts))
        monkeypatch.setattr(sys, "argv", [str(scripts / script[0]), *script[1:]])
        monkeypatch.setenv("COLUMNS", "80")
        if patch:
            monkeypatch.setattr(pinch, *patch)
        # termination_scan.py ends with SystemExit, its 0 included
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
            exited = 0
        except SystemExit as exc:
            exited = exc.code
        out, err = capsys.readouterr()
        assert exited == code
        # a violation (1) is a result, on stdout; an error (2 or 3) is on stderr
        stream = out if code in (0, 1) else err
        # a list is every line of the stream; a string, lines the stream holds
        if isinstance(lines, list):
            assert stream.splitlines() == lines
        else:
            assert set(lines.splitlines()) <= set(stream.splitlines())

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
            capture_output=True, text=True, env=CHILD_ENV, check=True,
        )
        assert int(proc.stdout) < 2048


class TestPackage:
    """Each name has one import path, its module; the package binds none."""

    def test_binds_no_function_or_class(self):
        bound = [name for name, value in vars(pinchcalc).items()
                 if inspect.isfunction(value) or inspect.isclass(value)]
        assert bound == []

    # what importing each module loads: the pinch calculus (pinch, families)
    # and the tangle calculus are independent, and only criteria combines them
    LOADS = {
        "arith": ["arith"],
        "pinch": ["arith", "pinch"],
        "families": ["arith", "families", "pinch"],
        "tangles": ["arith", "tangles"],
        "criteria": ["arith", "criteria", "families", "pinch", "tangles"],
        "cli": ["arith", "cli", "criteria", "families", "pinch", "tangles"],
    }

    @pytest.mark.parametrize("module", LOADS)
    def test_importing_a_module_loads_only_it(self, module):
        # nor dataclasses, or the inspect it imports: the value classes are
        # hand-written, and either would add a few ms to every command start.
        # Nor argparse: cli imports it only to build its parser
        script = ("import sys\nbefore = set(sys.modules)\n"
                  f"import pinchcalc.{module}\n"
                  "print(*sorted(n for n in sys.modules"
                  " if n.partition('.')[0] == 'pinchcalc'))\n"
                  "print(*sorted({'argparse', 'dataclasses', 'inspect'}"
                  " & set(sys.modules) - before))")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, check=True,
        )
        assert [line.split() for line in proc.stdout.splitlines()] == [
            ["pinchcalc", *(f"pinchcalc.{name}" for name in self.LOADS[module])], []]

    def test_a_plain_command_runs_without_argparse(self):
        # a plain command is read from the COMMANDS table; --help, like every
        # form that argparse reads, still imports it
        script = ("import sys\nbefore = set(sys.modules)\n"
                  "from pinchcalc.cli import cli_main\n"
                  "for argv in (['pinch-number', '4', '9', '--json'], ['--help']):\n"
                  "    print(cli_main(argv), 'argparse' in set(sys.modules) - before)\n")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, check=True,
        )
        lines = proc.stdout.splitlines()
        assert lines[:2] == [doc("pinch-number", '"p":4,"q":9',
                                 '"start":[4,9],"pinch_number":2').rstrip(), "0 False"]
        assert lines[2].startswith("usage: pinchcalc ")
        assert lines[-1] == "0 True"

    def test_no_module_asserts(self):
        # the one guarantee that python -O changes nothing: it strips assert
        # statements and makes __debug__ false, so no code in src/ or
        # scripts/ may use either.  CI's -O runs are a backstop
        root = Path(__file__).resolve().parents[1]
        found = [f"{path.relative_to(root)}:{node.lineno}"
                 for tree in ("src", "scripts")
                 for path in sorted((root / tree).rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)
                 or isinstance(node, ast.Name) and node.id == "__debug__"]
        assert found == []

    def test_no_module_imports_a_private_name(self):
        # every call between modules goes to a public function, the one
        # entry point of its check, which the benchmark's tracer wraps
        src = Path(pinchcalc.__file__).parent
        found = [f"{path.name}:{node.lineno} {alias.name}"
                 for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom)
                 and (node.level or (node.module or "").startswith("pinchcalc"))
                 for alias in node.names if alias.name.startswith("_")]
        assert found == []

    @pytest.mark.parametrize("patch, call", [
        ((pinch, "pinch_witnesses", lambda p, q: (0, 0)),
         lambda: pinch.sweep_termination(10)),
        # the walk's witnesses on the last column differ from these
        ((pinch, "pinch_witnesses", lambda p, q: (1, 1)),
         lambda: pinch.sweep_termination(10)),
        # and its pinch numbers there from this
        ((pinch, "pinch_number", lambda k: -1), lambda: pinch.sweep_termination(10)),
        # (2.0, 4.5) for T(4, 9): ph - qt = 0, which pinch_move refuses
        ((pinch, "pinch_witnesses", lambda p, q: (p / 2, q / 2)),
         lambda: pinch.pinch_move(TorusKnotParams(4, 9))),
        ((pinch, "pinch_witnesses", lambda p, q: (0, 0)),
         lambda: pinch.pinch_runs(TorusKnotParams(4, 9))),
        # not the witnesses of T(4, 9): its one move lands on T(0, 3)
        ((), lambda: list(PinchRun(4, 9, 2, 3, 1, 1).rows())),
        # its one move lands on T(2, 7), a coprime pair, but ph - qt = -5
        ((), lambda: list(PinchRun(4, 9, 1, 1, 1, 1).rows())),
        # closed_form and k_independence read that run's stride; tables
        # and j_to_k read its rows, which read the stride first.  Every
        # chain comes from pinch_sequence, which reads pinch.pinch_runs
        ((pinch, "pinch_runs", bad_runs),
         lambda: cli.check_pinch_numbers_and_closed_form(cli.member_table(3))),
        ((pinch, "pinch_runs", bad_runs),
         lambda: cli.check_k_independence(cli.member_table(3))),
        ((pinch, "pinch_runs", bad_runs),
         lambda: cli.check_j_to_k(cli.member_table(3))),
        ((pinch, "pinch_runs", bad_runs), cli.check_reference_tables),
        # and the checks refuse such a run when it is handed to them
        ((), lambda: verify_j_to_k(bad_runs(TorusKnotParams(4, 9)), (0, 1))),
        ((), lambda: verify_k_independence([bad_runs(TorusKnotParams(4, 9))], 3)),
        # a Bezout pair that breaks ax + cy = 1: a bug, not a bad slope
        ((tangles, "ext_gcd", lambda a, b: (1, 0, 0)),
         lambda: criteria.surgery_result_knot(FamilyId("K", 1))),
    ], ids=["sweep-zero-witnesses", "sweep-tree-witnesses", "sweep-pinch-number",
            "pinch-move-sign", "pinch-runs-witnesses", "run-rows-coprime",
            "run-rows-witnesses", "closed-form-bad-run", "k-independence-bad-run",
            "j-to-k-bad-run", "tables-bad-run", "verify-j-to-k-bad-run",
            "verify-k-independence-bad-run", "normalize-bad-bezout-pair"])
    def test_broken_invariant_raises(self, monkeypatch, patch, call):
        # under python -O too, as test_no_module_asserts finds no assert; a
        # RuntimeError itself, not a subclass such as IterationCapError
        if patch:
            monkeypatch.setattr(*patch)
        with pytest.raises(RuntimeError) as raised:
            call()
        assert raised.type is RuntimeError


class TestVerifyAll:
    def test_document_shape(self):
        # what cli_main puts in the document: its results and its status
        results, status = verify_all(5, "all")
        assert status == "ok"
        assert list(results) == [
            "tables", "closed_form", "j_to_k", "k_independence", "reports",
        ]
        # the mode is always given: the one caller, run_verify, has it
        mode = inspect.signature(verify_all).parameters["mode"]
        assert mode.default is inspect.Parameter.empty

    def test_modes(self):
        assert list(verify_all(5, "tables")[0]) == ["tables"]
        assert list(verify_all(5, "corollaries")[0]) == [
            "j_to_k", "k_independence",
        ]
        # a section counts the members it checks, none below n = 2
        for section in cli.check_j_to_k, cli.check_pinch_numbers_and_closed_form:
            assert section(cli.member_table(0)) == {"checked": 0, "violations": []}

    def test_refuses_range_over_bound(self, monkeypatch):
        # `verify all` builds each member's runs once: 0.13 s in process at N = 3000
        assert cli.VERIFY_MAX_N == 3000
        monkeypatch.setattr(cli, "VERIFY_MAX_N", 10)
        assert verify_all(10, "all")[1] == "ok"
        # every mode is refused, tables too, though it does not read N
        for mode in cli.MODES:
            with pytest.raises(ValueError, match="max_n 11 is over the verify bound 10"):
                verify_all(11, mode)

    def test_builds_one_knot_and_one_chain_per_member(self, monkeypatch):
        # K_1..K_30 then J_2..J_30, as (p, q), and the nine frozen rows' starts
        members = [closed_form_step(FamilyId(family, n), 0)
                   for family, first in (("K", 1), ("J", 2)) for n in range(first, 31)]
        rows = [table[n][0] for table in (cli.REFERENCE_ROWS_K, cli.REFERENCE_ROWS_J)
                for n in sorted(table)]
        built = count_knot_builds(monkeypatch)
        # one inverse a chain, so each chain built anywhere is counted
        inverses = count_witness_calls(monkeypatch)
        # every chain comes from pinch_sequence, which reads pinch.pinch_runs
        chains = []
        real = pinch.pinch_runs
        monkeypatch.setattr(pinch, "pinch_runs",
                            lambda k: chains.append((k.p, k.q)) or real(k))
        assert verify_all(30, "all")[1] == "ok"
        # the member table first, then the tables section's own table of
        # the members its rows name; no section builds a knot or a chain
        # outside a member table
        assert built == chains == inverses == members + rows
        # a mode of the tables alone builds only the tables section's table
        built.clear(), chains.clear(), inverses.clear()
        assert verify_all(30, "tables")[1] == "ok"
        assert built == chains == inverses == rows

    def test_sections_match_the_per_member_functions(self, monkeypatch):
        # each section against what the step oracle reads off each member's
        # chain, one pinch_move a move: an entry handed to the wrong member
        # differs
        certified = []
        real = cli.counterexample_report
        monkeypatch.setattr(cli, "counterexample_report",
                            lambda *entry: certified.append(real(*entry)) or certified[-1])
        chains = {}
        for max_n in [*range(2, 41), 300]:
            certified.clear()
            results, status = verify_all(max_n, "all")
            assert status == "ok"
            fids = [FamilyId(family, n) for family, first in (("K", 1), ("J", 2))
                    for n in range(first, max_n + 1)]
            for fid in fids:
                if fid not in chains:
                    chains[fid] = move_chain(family_knot(fid), 2 * fid.n + 1)
                knots = [closed_form_step(fid, 0)] + [
                    (s.target.p, s.target.q) for s in chains[fid]]
                assert knots == [closed_form_step(fid, k) for k in range(2 * fid.n + 1)]
            assert results["closed_form"] == {"checked": len(fids), "violations": []}
            k_members = {closed_form_step(FamilyId("K", n), 0): n
                         for n in range(1, max_n + 1)}
            targets = [(0, 1), *k_members]
            assert results["j_to_k"] == {
                "checked": max_n - 1,
                "violations": [n for n in range(2, max_n + 1)
                               if len(chains[FamilyId("J", n)]) < 4
                               or chains[FamilyId("J", n)][3].target
                               != TorusKnotParams(*targets[n - 2])]}
            # each knot a K_m chain visits, its start too, in either order
            visits = [(m, k_members.get((min(p, q), max(p, q))))
                      for m in range(1, max_n + 1)
                      for p, q in [closed_form_step(FamilyId("K", m), 0)] + [
                          (s.target.p, s.target.q) for s in chains[FamilyId("K", m)]]]
            assert results["k_independence"] == {
                "checked": max_n,
                "violations": [(m, n) for m, n in visits if n not in (None, m)]}
            expected = []
            for fid in fids:
                knot = family_knot(fid)
                bridge = surgery_result_knot(fid)
                negative = sum(s.sign < 0 for s in chains[fid])
                expected.append(CounterexampleReport(
                    fid.family, fid.n, knot, len(chains[fid]), 2 * fid.n - 1,
                    bridge.normalized, cf_even_expand(bridge.normalized), True,
                    negative, negative == 1))
            assert certified == expected
            assert results["reports"] == {"checked": len(fids), "violations": []}

    def test_closed_form_reads_every_run(self, monkeypatch):
        # K_2's chain as two runs: the first has the closed form's start and
        # stride, and the second, which passes its own check, climbs
        split = (PinchRun(8, 25, 7, 22, 1, -1), PinchRun(6, 19, -1, -3, 3, 1))
        real = pinch.pinch_runs
        monkeypatch.setattr(pinch, "pinch_runs",
                            lambda k: split if (k.p, k.q) == (8, 25) else real(k))
        section = cli.check_pinch_numbers_and_closed_form(cli.member_table(2))
        assert [(v["member"], v["k"]) for v in section["violations"]] == [
            ("K_2", 2), ("K_2", 3), ("K_2", 4)]

    def test_closed_form_off_by_a_constant_differs_at_every_step(self, monkeypatch):
        # the same stride as the engine's, from another start
        real = cli.closed_form_step

        def shifted(fid, k):
            p, q = real(fid, k)
            return p + 2, q

        monkeypatch.setattr(cli, "closed_form_step", shifted)
        section = cli.check_pinch_numbers_and_closed_form(cli.member_table(2))
        assert section["checked"] == 3
        assert [(v["member"], v["k"]) for v in section["violations"]] == [
            (member, k) for member, n in (("K_1", 1), ("K_2", 2), ("J_2", 2))
            for k in range(2 * n + 1)]

    def test_a_j_table_mismatch_is_a_violation(self, monkeypatch):
        monkeypatch.setitem(cli.REFERENCE_ROWS_J, 2, [(8, 9), (0, 1)])
        results, status = verify_all(2, "tables")
        assert status == "violation"
        assert [m["n"] for m in results["tables"]["J"]["mismatches"]] == [2]

    def test_a_row_filed_under_another_member_is_a_mismatch(self, capsys, monkeypatch):
        # each chain starts at the member's knot, not at its row's first pair
        monkeypatch.setitem(cli.REFERENCE_ROWS_K, 3, cli.REFERENCE_ROWS_K[4])
        code, out, _ = run_cli(capsys, "verify", "tables", "--json")
        assert code == 1
        tables = json.loads(out)["results"]["tables"]
        assert tables["K"]["matched"] == 4
        assert [(m["n"], m["got"][0]) for m in tables["K"]["mismatches"]] == [
            (3, [12, 49])]

    def test_the_harness_is_one_block_apart_from_the_rest(self):
        # REFERENCE_ROWS_K through verify_all can move to a module of its
        # own: it reads no name that the rest of cli.py defines (what it
        # imports from other modules moves with it), and only cli_main
        # builds a document
        body = ast.parse(Path(cli.__file__).read_text()).body

        def bound(stmt):
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                return {stmt.name}
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}

        first = next(i for i, stmt in enumerate(body) if "REFERENCE_ROWS_K" in bound(stmt))
        last = next(i for i, stmt in enumerate(body) if "verify_all" in bound(stmt))
        block, rest = body[first:last + 1], body[:first] + body[last + 1:]
        outside = set().union(*map(bound, rest))
        loaded = {n.id for stmt in block for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        assert loaded & outside == set()
        callers = {stmt.name if isinstance(stmt, ast.FunctionDef) else stmt.lineno
                   for stmt in body for n in ast.walk(stmt)
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_document"}
        assert callers == {"cli_main"}
