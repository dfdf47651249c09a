import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchcalc.arith import EvenCF, ReducedFraction, cf_even_expand
from pinchcalc.criteria import surgery_result_knot
from pinchcalc.families import FamilyId
from pinchcalc.tangles import (
    DegenerateTangleError,
    MatSL2,
    TwoBridgeKnot,
    is_slice_family,
    least_absolute_residue,
    mat_apply,
    mat_mul,
    two_bridge_equivalent,
    two_bridge_normalize,
)

from oracles import normalize_by_matrix

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


# reduced slopes up to 256 bits, of either sign, and 1/0
wide_slopes = st.one_of(
    st.just(ReducedFraction(1, 0)),
    st.builds(ReducedFraction, st.integers(-2**256, 2**256), st.integers(1, 2**256)),
)


@st.composite
def slopes(draw):
    num = draw(st.integers(-200, 200))
    den = draw(st.integers(-200, 200))
    if num == 0 and den == 0:
        den = 1
    return ReducedFraction(num, den)


class TestMatSL2:
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
    def test_infinity_first_slope(self):
        k = two_bridge_normalize(ReducedFraction(1, 0), ReducedFraction(7, 9))
        assert k.normalized == ReducedFraction(-2, 9)

    @given(st.one_of(st.tuples(wide_slopes, wide_slopes),
                     wide_slopes.map(lambda f: (f, f))))
    def test_matches_the_matrix_oracle(self, slope_pair):
        # equal slopes raise the same error, word for word, on both sides
        try:
            expected = normalize_by_matrix(*slope_pair)
        except DegenerateTangleError as exc:
            with pytest.raises(DegenerateTangleError) as raised:
                two_bridge_normalize(*slope_pair)
            assert str(raised.value) == str(exc)
        else:
            assert two_bridge_normalize(*slope_pair) == expected

    @given(st.tuples(slopes(), slopes()).filter(lambda t: t[0] != t[1]),
           st.integers(-20, 20))
    def test_stabilizer_invariance(self, slope_pair, k):
        # shifting t2's image by a unitriangular matrix before reducing the
        # residue cannot change the stored fraction; the shift keeps the
        # denominator, which is nonzero as t1 != t2
        base = two_bridge_normalize(*slope_pair).normalized
        shifted = mat_apply(MatSL2(1, k, 0, 1), base)
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
        # determinant 0: 1/0 is the one fraction with it
        assert two_bridge_equivalent(self._tbk(1, 0), self._tbk(1, 0))

    def test_distinct(self):
        assert not two_bridge_equivalent(self._tbk(2, 9), self._tbk(-2, 9))
        assert not two_bridge_equivalent(self._tbk(-2, 9), self._tbk(-2, 11))
