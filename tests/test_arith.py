import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchcalc.arith import (
    DegenerateCFError,
    EvenCF,
    NoEvenExpansionError,
    NotInvertibleError,
    ReducedFraction,
    cf_evaluate,
    cf_even_expand,
    ext_gcd,
    mod_inverse_smallest,
)


class TestExtGcd:
    def test_basic(self):
        assert ext_gcd(9, 4) == (1, 1, -2)
        assert ext_gcd(1, 0) == (1, 1, 0)

    def test_bezout_identity_8_25(self):
        g, x, y = ext_gcd(8, 25)
        assert g == 1
        assert 8 * x + 25 * y == 1

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            ext_gcd(0, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b) > 0
        assert a * x + b * y == g

    def test_bezout_identity_bulk(self):
        rng = random.Random(20240601)
        for _ in range(10**4):
            a = rng.randint(-10**12, 10**12)
            b = rng.randint(-10**12, 10**12)
            if a == 0 and b == 0:
                continue
            g, x, y = ext_gcd(a, b)
            assert g == gcd(a, b) and a * x + b * y == g


class TestModInverse:
    def test_examples(self):
        assert mod_inverse_smallest(8, 25) == 22
        assert mod_inverse_smallest(9, 4) == 1
        assert mod_inverse_smallest(1, 7) == 1
        assert mod_inverse_smallest(5, 1) == 0

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError, match=r"^2 is not invertible mod 4 \(gcd 2\)$"):
            mod_inverse_smallest(2, 4)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse_smallest(3, 0)

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_matches_linear_scan(self, a, m):
        if gcd(a, m) != 1:
            return
        u = mod_inverse_smallest(a, m)
        assert 0 <= u < m
        assert (a * u) % m == 1 % m
        # u is minimal: scan finds no smaller solution
        assert all((a * v) % m != 1 % m for v in range(u))

    @given(st.integers(-2**256, 2**256), st.integers(1, 2**256))
    @example(-7, 1)
    @example(0, 1)
    @example(0, 2**255)
    def test_matches_ext_gcd_oracle(self, a, m):
        g, x, _ = ext_gcd(a, m)
        if g == 1:
            assert mod_inverse_smallest(a, m) == x % m
        else:
            message = rf"^{a} is not invertible mod {m} \(gcd {g}\)$"
            with pytest.raises(NotInvertibleError, match=message):
                mod_inverse_smallest(a, m)

    def test_negative_argument(self):
        u = mod_inverse_smallest(-9, 25)
        assert 0 <= u < 25 and (-9 * u) % 25 == 1


class TestReducedFraction:
    def test_normalization(self):
        assert ReducedFraction(2, -9) == ReducedFraction(-2, 9)
        assert ReducedFraction(6, -4) == ReducedFraction(-3, 2)
        assert ReducedFraction(0, -5) == ReducedFraction(0, 1)

    def test_infinity_is_unique(self):
        assert ReducedFraction(-3, 0) == ReducedFraction(1, 0)
        assert ReducedFraction(1, 0).den == 0

    def test_zero_over_zero_rejected(self):
        with pytest.raises(ValueError):
            ReducedFraction(0, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_always_reduced(self, num, den):
        if num == 0 and den == 0:
            return
        f = ReducedFraction(num, den)
        if f.den == 0:
            assert f.num == 1
        else:
            assert f.den > 0
            assert gcd(f.num, f.den) == 1


class TestEvenCF:
    def test_rejects_odd_or_zero_entries(self):
        with pytest.raises(ValueError):
            EvenCF((3, 2))
        with pytest.raises(ValueError):
            EvenCF((2, 0))
        with pytest.raises(ValueError):
            EvenCF(())

    def test_expansion_examples(self):
        assert cf_even_expand(ReducedFraction(-2, 9)).coeffs == (-4, -2)
        assert cf_even_expand(ReducedFraction(-4, 25)).coeffs == (-6, -4)
        assert cf_even_expand(ReducedFraction(-4, 9)).coeffs == (-2, -4)

    def test_positive_mirror(self):
        assert cf_even_expand(ReducedFraction(2, 9)).coeffs == (4, 2)

    def test_domain_errors(self):
        for bad in [(0, 1), (3, 2), (5, 5), (1, 0)]:
            with pytest.raises(ValueError):
                cf_even_expand(ReducedFraction(*bad))

    def test_no_even_expansion(self):
        # reciprocal of 1/3 is the odd integer 3
        with pytest.raises(NoEvenExpansionError):
            cf_even_expand(ReducedFraction(1, 3))
        # 7/3 = 2 + 1/3 leads to the odd integer 3 one level down
        with pytest.raises(NoEvenExpansionError):
            cf_even_expand(ReducedFraction(3, 7))

    def test_evaluate_examples(self):
        assert cf_evaluate(EvenCF((-4, -2))) == ReducedFraction(-2, 9)
        assert cf_evaluate(EvenCF((-6, -4))) == ReducedFraction(-4, 25)
        assert cf_evaluate(EvenCF((-6,))) == ReducedFraction(-1, 6)
        assert cf_evaluate(EvenCF((4,))) == ReducedFraction(1, 4)

    def test_evaluate_plain_sequences(self):
        assert cf_evaluate([2, 3]) == ReducedFraction(3, 7)

    def test_evaluate_degenerate(self):
        # tail [1, -1] evaluates to zero, so the next reciprocal blows up
        with pytest.raises(DegenerateCFError):
            cf_evaluate([2, 1, -1])

    def test_evaluate_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            cf_evaluate([])
        with pytest.raises(ValueError):
            cf_evaluate([2, 0])

    @given(st.integers(-10**5, 10**5), st.integers(2, 10**5))
    @settings(max_examples=300)
    def test_round_trip(self, num, den):
        if num == 0 or abs(num) >= den or gcd(num, den) != 1:
            return
        f = ReducedFraction(num, den)
        try:
            cf = cf_even_expand(f)
        except NoEvenExpansionError:
            return
        assert all(a % 2 == 0 and a != 0 for a in cf.coeffs)
        assert cf_evaluate(cf) == f

    def test_round_trip_bulk(self):
        rng = random.Random(996633)
        hits = 0
        for _ in range(2000):
            den = rng.randint(2, 10**5)
            num = rng.randint(1, den - 1) * rng.choice((1, -1))
            if gcd(num, den) != 1:
                continue
            f = ReducedFraction(num, den)
            try:
                cf = cf_even_expand(f)
            except NoEvenExpansionError:
                continue
            assert cf_evaluate(cf) == f
            hits += 1
        assert hits > 500
