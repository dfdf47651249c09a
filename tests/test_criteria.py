import subprocess
import sys

import pytest

from pinchcalc.criteria import sign_sequence
from pinchcalc.pinch import TorusKnotParams

from oracles import CHILD_ENV


class TestSignSequence:
    def test_unknot_empty(self):
        s = sign_sequence(TorusKnotParams(1, 0))
        assert s.runs == () and s.negative_count == 0

    def test_families_all_negative(self):
        for eps in (1, -1):
            for n in range(2, 30):
                k = TorusKnotParams(4 * n, (2 * n + eps) ** 2)
                # one run of 2n moves, negative, and positive once swapped
                runs = sign_sequence(k).runs
                assert [(r.sign, r.count) for r in runs] == [(-1, 2 * n)]
                runs = sign_sequence(k.swap()).runs
                assert [(r.sign, r.count) for r in runs] == [(1, 2 * n)]


class TestSingleRunAtScale:
    def test_counts_answer_under_a_memory_cap(self):
        pytest.importorskip("resource")
        # T(10^18, 10^18 + 1) is one negative run of 5 * 10^17 moves, and
        # K_(10^12) one of 2 * 10^12; a chain expanded per move would not
        # fit under 1 GiB of address space
        script = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from pinchcalc.criteria import counterexample_report, jvc_criterion\n"
            "from pinchcalc.families import FamilyId, family_knot\n"
            "from pinchcalc.pinch import TorusKnotParams, pinch_sequence\n"
            "k = TorusKnotParams(10**18, 10**18 + 1)\n"
            "fid = FamilyId('K', 10**12)\n"
            "print(pinch_sequence(k).pinch_number, jvc_criterion(k).negative_count,\n"
            "      counterexample_report(fid, pinch_sequence(family_knot(fid)))"
            ".jvc_negative_count)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=CHILD_ENV, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(5 * 10**17)] * 2 + [str(2 * 10**12)]
