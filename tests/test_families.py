from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchcalc import families
from pinchcalc.families import (
    FamilyId,
    closed_form_step,
    family_knot,
    verify_j_to_k,
    verify_k_independence,
)
from pinchcalc.pinch import TorusKnotParams, pinch_move, pinch_runs, pinch_sequence


class TestFamilyId:
    def test_validation(self):
        with pytest.raises(ValueError):
            FamilyId("K", 0)
        with pytest.raises(ValueError):
            FamilyId("L", 3)

    def test_triviality(self):
        assert FamilyId("J", 1).is_trivial
        assert not FamilyId("J", 2).is_trivial
        assert not FamilyId("K", 1).is_trivial


class TestFamilyKnot:
    def test_members(self):
        assert family_knot(FamilyId("K", 1)) == TorusKnotParams(4, 9)
        assert family_knot(FamilyId("K", 2)) == TorusKnotParams(8, 25)
        assert family_knot(FamilyId("J", 2)) == TorusKnotParams(8, 9)
        assert family_knot(FamilyId("J", 1)) == TorusKnotParams(4, 1)

    def test_pinch_number_is_2n(self):
        for n in range(1, 25):
            assert pinch_sequence(family_knot(FamilyId("K", n))).pinch_number == 2 * n
        for n in range(2, 25):
            assert pinch_sequence(family_knot(FamilyId("J", n))).pinch_number == 2 * n


class TestClosedForm:
    def test_examples(self):
        assert closed_form_step(3, 1, 1) == TorusKnotParams(41, 10)
        assert closed_form_step(2, -1, 3) == TorusKnotParams(3, 2)
        assert closed_form_step(2, -1, 4) == TorusKnotParams(1, 0)
        for n in (1, 2, 7):
            for eps in (1, -1):
                assert closed_form_step(n, eps, 2 * n) == TorusKnotParams(1, 0)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            closed_form_step(3, 1, 7)
        with pytest.raises(ValueError):
            closed_form_step(3, 2, 1)
        with pytest.raises(ValueError):
            closed_form_step(0, 1, 0)

    @given(st.integers(1, 500), st.sampled_from((1, -1)), st.integers(0, 1000))
    def test_product_identity(self, n, eps, k):
        # (2n+eps)^2 - 2k(n+eps) = (4n-2k)(n+eps) + 1 as integers
        if k > 2 * n:
            return
        odd = 2 * n + eps
        assert odd * odd - 2 * k * (n + eps) == (4 * n - 2 * k) * (n + eps) + 1

    def test_commutes_with_pinch_engine(self):
        for fam, eps, lo in (("K", 1, 1), ("J", -1, 2)):
            for n in range(lo, 30):
                knots = pinch_sequence(family_knot(FamilyId(fam, n))).knots()
                for k in range(2 * n + 1):
                    assert closed_form_step(n, eps, k).same_knot(knots[k])

    def test_stepwise_agreement(self):
        # pinching the closed form at k gives the closed form at k+1
        for eps in (1, -1):
            for n in range(2, 20):
                for k in range(2 * n):
                    cur = closed_form_step(n, eps, k)
                    if cur.is_unknot():
                        continue
                    nxt = pinch_move(cur).target
                    assert nxt.same_knot(closed_form_step(n, eps, k + 1))


class TestJToK:
    def test_holds_on_range(self):
        for n in range(2, 40):
            assert verify_j_to_k(n)

    def test_n2_lands_on_unknot(self):
        cur = family_knot(FamilyId("J", 2))
        for _ in range(4):
            cur = pinch_move(cur).target
        assert cur.same_knot(TorusKnotParams(0, 1))

    def test_n3_lands_on_4_9(self):
        cur = family_knot(FamilyId("J", 3))
        for _ in range(4):
            cur = pinch_move(cur).target
        assert cur.same_knot(TorusKnotParams(4, 9))

    def test_n5_intermediates(self):
        chain = []
        cur = family_knot(FamilyId("J", 5))
        for _ in range(4):
            cur = pinch_move(cur).target
            chain.append((cur.p, cur.q))
        assert chain == [(18, 73), (16, 65), (14, 57), (12, 49)]
        assert cur.same_knot(family_knot(FamilyId("K", 3)))

    def test_holds_at_large_n(self):
        # four pinches on 10^12-scale members, move by move and from the run
        n = 10**12
        assert verify_j_to_k(n)
        (run,) = pinch_runs(family_knot(FamilyId("J", n)))
        *_, fourth = islice(run.steps(), 4)
        assert fourth.target == family_knot(FamilyId("K", n - 2))

    def test_requires_n_at_least_2(self):
        with pytest.raises(ValueError):
            verify_j_to_k(1)


class TestKIndependence:
    def test_empty_on_ranges(self):
        assert verify_k_independence(1) == []
        assert verify_k_independence(5) == []
        assert verify_k_independence(30) == []

    def test_finds_a_collision(self, monkeypatch):
        # K_3 moved to J_3 = T(12, 25), whose chain passes through K_1 = T(4, 9)
        real = families.family_knot

        def fake(fid):
            if fid == FamilyId("K", 3):
                return real(FamilyId("J", 3))
            return real(fid)

        monkeypatch.setattr(families, "family_knot", fake)
        assert verify_k_independence(5) == [(3, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_k_independence(0)
