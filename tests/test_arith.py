from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pinchcalc.arith import (
    EvenCF,
    NoEvenExpansionError,
    NotInvertibleError,
    ReducedFraction,
    cf_evaluate,
    cf_even_expand,
    ext_gcd,
    mod_inverse_smallest,
)

from oracles import even_cf_entries

# entries of the step oracle per example.  Outside its blocks of +-2
# entries an expansion has about one entry per bit of the denominator at
# most, so only a long block passes the cap.  The strategy drops such
# fractions, as a long enough block could fill memory; only the (k - 1)/k
# examples at k = 10^40 pass it
ORACLE_ENTRIES = 10_000


def oracle_outcome(f):
    """The step oracle's EvenCF of f, or its exception's type and message;
    None when the expansion has more than ORACLE_ENTRIES entries."""
    try:
        entries = tuple(islice(even_cf_entries(f), ORACLE_ENTRIES + 1))
    except ValueError as exc:
        return type(exc), str(exc)
    return EvenCF(entries) if len(entries) <= ORACLE_ENTRIES else None


# num/den with |num| <= den <= 2^256, num * den of either parity
oracle_fractions = st.integers(1, 2**256).flatmap(
    lambda den: st.tuples(st.integers(-den, den), st.just(den))
).filter(lambda f: oracle_outcome(ReducedFraction(*f)) is not None)


class TestExtGcd:
    def test_basic(self):
        assert ext_gcd(9, 4) == (1, 1, -2)
        assert ext_gcd(1, 0) == (1, 1, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_bezout_identity(self, a, b):
        if a == 0 and b == 0:
            return
        g, x, y = ext_gcd(a, b)
        assert g == gcd(a, b) > 0
        assert a * x + b * y == g


class TestModInverse:
    def test_examples(self):
        assert mod_inverse_smallest(8, 25) == 22
        assert mod_inverse_smallest(9, 4) == 1
        assert mod_inverse_smallest(1, 7) == 1
        assert mod_inverse_smallest(5, 1) == 0

    @given(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**4))
           .filter(lambda am: gcd(*am) == 1))
    def test_matches_linear_scan(self, am):
        a, m = am
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


class TestReducedFraction:
    def test_normalization(self):
        assert ReducedFraction(2, -9) == ReducedFraction(-2, 9)
        assert ReducedFraction(6, -4) == ReducedFraction(-3, 2)
        assert ReducedFraction(0, -5) == ReducedFraction(0, 1)

    def test_infinity_is_unique(self):
        assert ReducedFraction(-3, 0) == ReducedFraction(1, 0)
        assert ReducedFraction(1, 0).den == 0

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_always_reduced(self, num, den):
        if num == 0 and den == 0:
            return
        f = ReducedFraction(num, den)
        if den == 0:
            assert (f.num, f.den) == (1, 0)
        else:
            assert f.den > 0
            assert gcd(f.num, f.den) == 1
            assert Fraction(f.num, f.den) == Fraction(num, den)


class TestEvenCF:
    def test_positive_mirror(self):
        assert cf_even_expand(ReducedFraction(2, 9)).coeffs == (4, 2)

    @given(st.lists(st.integers(-10**6, 10**6).filter(bool).map(lambda a: 2 * a),
                    max_size=6),
           st.integers(-10**6, 10**6).filter(lambda a: a not in (0, -1))
           .map(lambda a: 2 * a + 1))
    @example([], 3)
    @example([-2], -3)
    def test_odd_tail_is_named(self, entries, m):
        # even entries |a| >= 2 then an odd |m| >= 3: the greedy expansion
        # retraces a1..ak and halts at m, at every depth k
        with pytest.raises(NoEvenExpansionError) as caught:
            cf_even_expand(cf_evaluate([*entries, m]))
        assert str(caught.value).endswith(f"hits the odd integer {m}")

    @given(oracle_fractions)
    @example((1, 2))
    @example((-1, 2))
    @example((2, 3))
    @example((-2, 3))
    @example((10**40 - 1, 10**40))
    @example((1 - 10**40, 10**40))
    @example((2, 9))
    @example((3, 7))
    @example((5, 3))
    def test_matches_the_step_oracle(self, fraction):
        f = ReducedFraction(*fraction)
        expected = oracle_outcome(f)
        if expected is None:
            # one block of about 10^40 entries: too long to index, so it is
            # refused at once, where one divmod per entry would never end
            with pytest.raises(OverflowError):
                cf_even_expand(f)
            return
        try:
            got = cf_even_expand(f)
        except ValueError as exc:
            got = type(exc), str(exc)
        assert got == expected

    def test_evaluate_examples(self):
        assert cf_evaluate(EvenCF((-4, -2))) == ReducedFraction(-2, 9)
        assert cf_evaluate(EvenCF((-6, -4))) == ReducedFraction(-4, 25)
        assert cf_evaluate(EvenCF((-6,))) == ReducedFraction(-1, 6)
        assert cf_evaluate(EvenCF((4,))) == ReducedFraction(1, 4)

    def test_evaluate_plain_sequences(self):
        assert cf_evaluate([2, 3]) == ReducedFraction(3, 7)

    @given(st.integers(2, 10**5).flatmap(lambda den: st.tuples(
        st.integers(1 - den, den - 1).filter(bool), st.just(den)))
        .filter(lambda f: gcd(*f) == 1 and f[0] * f[1] % 2 == 0))
    def test_round_trip(self, fraction):
        # 0 < |num| < den with num * den even: each step keeps one of the
        # pair odd and one even, so the chain never meets an odd integer,
        # and these are exactly the fractions with an even expansion
        f = ReducedFraction(*fraction)
        cf = cf_even_expand(f)
        assert all(a % 2 == 0 and a != 0 for a in cf.coeffs)
        assert cf_evaluate(cf) == f
