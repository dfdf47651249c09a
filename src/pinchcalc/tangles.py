"""Rational tangle slopes: the SL(2, Z) action, two-bridge normalization,
and recognition of the slice family with expansion [k+2, k].
"""

from collections import namedtuple
from operator import index

from .arith import EvenCF, ReducedFraction, Value, ext_gcd


class DegenerateTangleError(ValueError):
    """The two tangle slopes coincide, so the closure is a link, not a knot."""


class MatSL2(Value):
    """A 2x2 integer matrix [[a, b], [c, d]] of determinant one."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        # index() refuses a float, which would fail later, inside gcd
        a, b, c, d = index(a), index(b), index(c), index(d)
        det = a * d - b * c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    @classmethod
    def identity(cls) -> "MatSL2":
        return cls(1, 0, 0, 1)


def mat_mul(m1: MatSL2, m2: MatSL2) -> MatSL2:
    return MatSL2(
        m1.a * m2.a + m1.b * m2.c,
        m1.a * m2.b + m1.b * m2.d,
        m1.c * m2.a + m1.d * m2.c,
        m1.c * m2.b + m1.d * m2.d,
    )


def mat_apply(m: MatSL2, f: ReducedFraction) -> ReducedFraction:
    """The image slope M . (num, den)^T; determinant one keeps pairs coprime."""
    return ReducedFraction(m.a * f.num + m.b * f.den, m.c * f.num + m.d * f.den)


def least_absolute_residue(num: int, den: int) -> int:
    """Representative of num mod den >= 1 with least absolute value, ties negative."""
    num, den = index(num), index(den)  # refuses a float, which would pass through
    if den < 1:
        raise ValueError(f"modulus must be >= 1, got {den}")
    return (num + den // 2) % den - den // 2


class TwoBridgeKnot(namedtuple("TwoBridgeKnot", "t1 t2 normalized")):
    """A union of two rational tangles plus its closure fraction.

    normalized is the second slope after a determinant-one coordinate change
    sends the first slope to 1/0, its numerator reduced to the least
    absolute residue mod the denominator (the leftover stabilizer of 1/0
    shifts the numerator by denominator multiples).  A named tuple, as no
    caller compares it with a plain tuple.
    """

    __slots__ = ()

    def determinant(self) -> int:
        if self.normalized.den == 0:
            raise ValueError("degenerate closure fraction 1/0 has no determinant")
        return self.normalized.den


def two_bridge_normalize(t1: ReducedFraction, t2: ReducedFraction) -> TwoBridgeKnot:
    """Send t1 = a/c to 1/0 by the determinant-one matrix [[x, y], [-c, a]],
    ax + cy = 1, and record where t2 = b/d lands, in plain ints.

    The image is (xb + yd)/(ad - cb).  Its denominator is zero exactly when
    t1 = t2: ad = cb with both pairs coprime gives (b, d) = +-(a, c), and as
    both fractions keep den >= 0, with 1/0 the one form of the infinite
    slope, the sign is +.  The image pair is already coprime, as a
    determinant-one matrix keeps a coprime pair coprime, so only its sign
    moves onto the numerator, which is then reduced to the least absolute
    residue mod the denominator.  A Bezout pair from ext_gcd that breaks
    ax + cy = 1 is a bug, and raises RuntimeError.
    """
    a, c, b, d = t1.num, t1.den, t2.num, t2.den
    den = a * d - c * b
    if den == 0:
        raise DegenerateTangleError(f"equal slopes {t1} close up to a link")
    _, x, y = ext_gcd(a, c)
    if a * x + c * y != 1:
        raise RuntimeError(f"{t1}: Bezout pair ({x}, {y}) gives determinant "
                           f"{a * x + c * y}, not 1")
    num = x * b + y * d
    if den < 0:
        num, den = -num, -den
    return TwoBridgeKnot(t1=t1, t2=t2, normalized=ReducedFraction(
        least_absolute_residue(num, den), den))


def two_bridge_equivalent(k1: TwoBridgeKnot, k2: TwoBridgeKnot) -> bool:
    """Schubert's criterion on closure fractions: equal determinants with
    numerators related by b' = b or b*b' = 1 (mod determinant)."""
    a = k1.normalized.den
    if a != k2.normalized.den:
        return False
    if a == 0:
        return True
    b1 = k1.normalized.num % a
    b2 = k2.normalized.num % a
    return b1 == b2 or (b1 * b2) % a == 1 % a


def is_slice_family(cf: EvenCF) -> bool:
    """Recognize the slice two-bridge family with expansion [k+2, k], k >= 2 even.

    Reading order and a global mirror are immaterial: two entries of equal
    sign whose magnitudes differ by exactly 2 qualify.
    """
    if len(cf.coeffs) != 2:
        return False
    a, b = cf.coeffs
    if (a > 0) != (b > 0):
        return False
    lo, hi = sorted((abs(a), abs(b)))
    return lo >= 2 and lo % 2 == 0 and hi == lo + 2
