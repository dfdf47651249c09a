import pytest

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
        assert s.signs == (-1, -1)
        assert s.negative_count == 2

    def test_9_4_orientation_flips_signs(self):
        s = sign_sequence(TorusKnotParams(9, 4))
        assert s.signs == (1, 1)
        assert s.negative_count == 0

    def test_2_3(self):
        assert sign_sequence(TorusKnotParams(2, 3)).signs == (-1,)

    def test_unknot_empty(self):
        s = sign_sequence(TorusKnotParams(1, 0))
        assert s.signs == () and s.negative_count == 0

    def test_families_all_negative(self):
        for eps in (1, -1):
            for n in range(2, 30):
                k = TorusKnotParams(4 * n, (2 * n + eps) ** 2)
                assert all(s < 0 for s in sign_sequence(k).signs)
                assert all(s > 0 for s in sign_sequence(k.swap()).signs)


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
