import os
import subprocess
import sys
from pathlib import Path

import pytest

from pinchcalc import criteria
from pinchcalc.arith import ReducedFraction
from pinchcalc.criteria import (
    CriterionNotApplicableError,
    counterexample_report,
    jvc_criterion,
    sign_sequence,
)
from pinchcalc.families import FamilyId
from pinchcalc.pinch import TorusKnotParams


class TestSignSequence:
    def test_4_9(self):
        s = sign_sequence(TorusKnotParams(4, 9))
        assert [(r.sign, r.count) for r in s.runs] == [(-1, 2)]
        assert s.negative_count == 2

    def test_9_4_orientation_flips_signs(self):
        s = sign_sequence(TorusKnotParams(9, 4))
        assert [(r.sign, r.count) for r in s.runs] == [(1, 2)]
        assert s.negative_count == 0

    def test_2_3(self):
        s = sign_sequence(TorusKnotParams(2, 3))
        assert [(r.sign, r.count) for r in s.runs] == [(-1, 1)]

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


class TestJvcCriterion:
    def test_k1(self):
        v = jvc_criterion(TorusKnotParams(4, 9))
        assert (v.negative_count, v.equals_pinch_minus_one) == (2, False)

    def test_j2(self):
        v = jvc_criterion(TorusKnotParams(8, 9))
        assert (v.negative_count, v.equals_pinch_minus_one) == (4, False)

    def test_control_2_3(self):
        v = jvc_criterion(TorusKnotParams(2, 3))
        assert (v.negative_count, v.equals_pinch_minus_one) == (1, True)

    def test_parity_precondition(self):
        with pytest.raises(CriterionNotApplicableError):
            jvc_criterion(TorusKnotParams(9, 4))  # p odd
        with pytest.raises(CriterionNotApplicableError):
            jvc_criterion(TorusKnotParams(3, 5))  # p odd
        with pytest.raises(CriterionNotApplicableError):
            jvc_criterion(TorusKnotParams(1, 4))  # p too small


class TestCounterexampleReport:
    def test_k1(self):
        r = counterexample_report(FamilyId("K", 1))
        assert r.knot == TorusKnotParams(4, 9)
        assert r.pinch_number == 2
        assert r.band_count == 1
        assert r.slice_fraction == ReducedFraction(-2, 9)
        assert r.slice_cf.coeffs == (-4, -2)
        assert r.jvc_negative_count == 2
        assert not r.jvc_equals_pinch_minus_one

    def test_k2(self):
        r = counterexample_report(FamilyId("K", 2))
        assert r.pinch_number == 4
        assert r.band_count == 3
        assert r.slice_fraction == ReducedFraction(-4, 25)
        assert r.slice_cf.coeffs == (-6, -4)

    def test_j2(self):
        r = counterexample_report(FamilyId("J", 2))
        assert r.pinch_number == 4
        assert r.band_count == 3
        assert r.slice_fraction == ReducedFraction(-4, 9)
        assert r.slice_cf.coeffs == (-2, -4)

    def test_trivial_member_rejected(self):
        with pytest.raises(ValueError):
            counterexample_report(FamilyId("J", 1))

    def test_range(self):
        for fam, lo in (("K", 1), ("J", 2)):
            for n in range(lo, 20):
                r = counterexample_report(FamilyId(fam, n))
                assert r.pinch_number == 2 * n
                assert r.band_count == 2 * n - 1
                assert r.jvc_negative_count == 2 * n
                assert not r.jvc_equals_pinch_minus_one


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
            "from pinchcalc.families import FamilyId\n"
            "from pinchcalc.pinch import TorusKnotParams, pinch_sequence\n"
            "k = TorusKnotParams(10**18, 10**18 + 1)\n"
            "print(pinch_sequence(k).pinch_number, jvc_criterion(k).negative_count,\n"
            "      counterexample_report(FamilyId('K', 10**12)).jvc_negative_count)\n"
        )
        # the child imports the same pinchcalc as this test run
        env = {**os.environ, "PYTHONPATH": str(Path(criteria.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=10,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(5 * 10**17)] * 2 + [str(2 * 10**12)]
