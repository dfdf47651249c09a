import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchcalc.arith import EvenCF, ReducedFraction, cf_even_expand
from pinchcalc.families import FamilyId
from pinchcalc.tangles import (
    DegenerateTangleError,
    MatSL2,
    TwoBridgeKnot,
    is_slice_family,
    least_absolute_residue,
    mat_apply,
    mat_mul,
    surgery_result_knot,
    two_bridge_equivalent,
    two_bridge_normalize,
)

shears = st.integers(-50, 50)


@st.composite
def sl2_matrices(draw):
    # products of elementary shears stay in SL(2, Z)
    m = MatSL2.identity()
    for _ in range(draw(st.integers(1, 4))):
        k = draw(shears)
        upper = draw(st.booleans())
        e = MatSL2(1, k, 0, 1) if upper else MatSL2(1, 0, k, 1)
        m = mat_mul(m, e)
    return m


@st.composite
def slopes(draw):
    num = draw(st.integers(-200, 200))
    den = draw(st.integers(-200, 200))
    if num == 0 and den == 0:
        den = 1
    return ReducedFraction(num, den)


class TestMatSL2:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            MatSL2(1, 0, 0, -1)
        with pytest.raises(ValueError):
            MatSL2(2, 0, 0, 2)

    def test_apply_examples(self):
        m = MatSL2(1, 0, -7, 1)
        assert mat_apply(m, ReducedFraction(1, 7)) == ReducedFraction(1, 0)
        assert mat_apply(m, ReducedFraction(4, 3)) == ReducedFraction(-4, 25)
        ident = MatSL2.identity()
        f = ReducedFraction(-3, 11)
        assert mat_apply(ident, f) == f

    @given(sl2_matrices(), sl2_matrices(), slopes())
    def test_composition(self, m1, m2, f):
        assert mat_apply(mat_mul(m1, m2), f) == mat_apply(m1, mat_apply(m2, f))

    @given(sl2_matrices(), slopes())
    def test_preserves_reducedness(self, m, f):
        image = mat_apply(m, f)
        if image.den == 0:
            assert image.num == 1
        else:
            from math import gcd

            assert gcd(image.num, image.den) == 1


class TestLeastAbsoluteResidue:
    def test_values(self):
        assert least_absolute_residue(-2, 9) == -2
        assert least_absolute_residue(7, 9) == -2
        assert least_absolute_residue(4, 9) == 4
        assert least_absolute_residue(5, 9) == -4
        assert least_absolute_residue(1, 2) == -1  # tie goes negative
        assert least_absolute_residue(10, 1) == 0

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_least(self, num, den):
        r = least_absolute_residue(num, den)
        assert (num - r) % den == 0
        assert 2 * abs(r) <= den
        if 2 * abs(r) == den:
            assert r < 0


class TestTwoBridgeNormalize:
    def test_stevedore_slopes(self):
        k = two_bridge_normalize(ReducedFraction(1, 5), ReducedFraction(2, 1))
        assert k.normalized == ReducedFraction(-2, 9)

    def test_infinity_first_slope(self):
        k = two_bridge_normalize(ReducedFraction(1, 0), ReducedFraction(7, 9))
        assert k.normalized == ReducedFraction(-2, 9)

    def test_n2_plus_branch(self):
        k = two_bridge_normalize(ReducedFraction(1, 7), ReducedFraction(4, 3))
        assert k.normalized == ReducedFraction(-4, 25)

    def test_equal_slopes_degenerate(self):
        with pytest.raises(DegenerateTangleError):
            two_bridge_normalize(ReducedFraction(1, 5), ReducedFraction(1, 5))

    @given(slopes(), slopes(), st.integers(-20, 20))
    def test_stabilizer_invariance(self, t1, t2, k):
        # shifting t2's image by a unitriangular matrix before reducing the
        # residue cannot change the stored fraction
        if t1 == t2:
            return
        base = two_bridge_normalize(t1, t2).normalized
        shifted = mat_apply(MatSL2(1, k, 0, 1), base)
        if shifted.den == 0:
            return
        assert (
            least_absolute_residue(shifted.num, shifted.den) == base.num
            and shifted.den == base.den
        )


class TestSurgeryResult:
    def test_k1_is_stevedore_fraction(self):
        k = surgery_result_knot(FamilyId("K", 1))
        assert k.t1 == ReducedFraction(1, 5)
        assert k.t2 == ReducedFraction(2, 1)
        assert k.normalized == ReducedFraction(-2, 9)
        assert cf_even_expand(k.normalized).coeffs == (-4, -2)

    def test_k2(self):
        k = surgery_result_knot(FamilyId("K", 2))
        assert k.normalized == ReducedFraction(-4, 25)
        assert cf_even_expand(k.normalized).coeffs == (-6, -4)

    def test_j2(self):
        k = surgery_result_knot(FamilyId("J", 2))
        assert k.normalized == ReducedFraction(-4, 9)
        assert cf_even_expand(k.normalized).coeffs == (-2, -4)

    def test_j1_rejected(self):
        with pytest.raises(ValueError):
            surgery_result_knot(FamilyId("J", 1))

    def test_determinants_are_odd_squares(self):
        assert surgery_result_knot(FamilyId("K", 1)).determinant() == 9
        assert surgery_result_knot(FamilyId("K", 2)).determinant() == 25
        assert surgery_result_knot(FamilyId("J", 2)).determinant() == 9

    def test_family_formula(self):
        for fam, eps, lo in (("K", 1, 1), ("J", -1, 2)):
            for n in range(lo, 30):
                k = surgery_result_knot(FamilyId(fam, n))
                assert k.normalized == ReducedFraction(-2 * n, 4 * n * (n + eps) + 1)
                assert k.determinant() == (2 * n + eps) ** 2


class TestSliceFamily:
    def test_members(self):
        assert is_slice_family(EvenCF((-4, -2)))
        assert is_slice_family(EvenCF((-6, -4)))
        assert is_slice_family(EvenCF((-2, -4)))  # reversed reading
        assert is_slice_family(EvenCF((4, 6)))  # mirrored
        assert is_slice_family(EvenCF((6, 4)))

    def test_non_members(self):
        assert not is_slice_family(EvenCF((-4, -4)))
        assert not is_slice_family(EvenCF((-4, 2)))  # mixed signs
        assert not is_slice_family(EvenCF((-8, -4)))  # gap of 4
        assert not is_slice_family(EvenCF((-4,)))
        assert not is_slice_family(EvenCF((-6, -4, -2)))


class TestSchubertEquivalence:
    def _tbk(self, num, den):
        f = ReducedFraction(num, den)
        return TwoBridgeKnot(
            t1=ReducedFraction(1, 0), t2=f, normalized=f
        )

    def test_inverse_numerators_equivalent(self):
        # -2 = 7 (mod 9) and 7*4 = 1 (mod 9)
        assert two_bridge_equivalent(self._tbk(-2, 9), self._tbk(4, 9))

    def test_same_fraction(self):
        assert two_bridge_equivalent(self._tbk(-2, 9), self._tbk(-2, 9))

    def test_distinct(self):
        assert not two_bridge_equivalent(self._tbk(2, 9), self._tbk(-2, 9))
        assert not two_bridge_equivalent(self._tbk(-2, 9), self._tbk(-2, 11))
