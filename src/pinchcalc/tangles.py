"""Rational tangle slopes: the SL(2, Z) action, two-bridge normalization,
and recognition of the slice family with expansion [k+2, k].
"""

from dataclasses import dataclass

from .arith import EvenCF, ReducedFraction, ext_gcd
from .families import FamilyId


class DegenerateTangleError(ValueError):
    """The two tangle slopes coincide, so the closure is a link, not a knot."""


@dataclass(frozen=True)
class MatSL2:
    """A 2x2 integer matrix [[a, b], [c, d]] of determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValueError(f"determinant must be 1, got {det}")

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
    """Representative of num mod den with least absolute value, ties negative."""
    r = num % den
    if 2 * r >= den:
        r -= den
    return r


@dataclass(frozen=True)
class TwoBridgeKnot:
    """A union of two rational tangles plus its closure fraction.

    normalized is the second slope after a determinant-one coordinate change
    sends the first slope to 1/0, its numerator reduced to the least
    absolute residue mod the denominator (the leftover stabilizer of 1/0
    shifts the numerator by denominator multiples).
    """

    t1: ReducedFraction
    t2: ReducedFraction
    normalized: ReducedFraction

    def determinant(self) -> int:
        if self.normalized.den == 0:
            raise ValueError("degenerate closure fraction 1/0 has no determinant")
        return self.normalized.den


def two_bridge_normalize(t1: ReducedFraction, t2: ReducedFraction) -> TwoBridgeKnot:
    """Send t1 to 1/0 by a determinant-one matrix and record where t2 lands."""
    if t1 == t2:
        raise DegenerateTangleError(f"equal slopes {t1} close up to a link")
    _, x, y = ext_gcd(t1.num, t1.den)
    m = MatSL2(x, y, -t1.den, t1.num)
    raw = mat_apply(m, t2)
    # raw.den = t1.num*t2.den - t1.den*t2.num, nonzero exactly when t1 != t2
    num = least_absolute_residue(raw.num, raw.den)
    return TwoBridgeKnot(t1=t1, t2=t2, normalized=ReducedFraction(num, raw.den))


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


def surgery_result_knot(fid: FamilyId) -> TwoBridgeKnot:
    """The two-bridge knot produced by the 2n-1 band surgeries on K_n or J_n.

    The bands leave the union of the tangles with slopes 1/(2m+1), where
    m = n+1 for K and n-1 for J, and 2n/(2n-1); normalizing the first slope
    to 1/0 lands the second on 2n/(-4n(n+-1)-1).
    """
    if fid.is_trivial:
        raise ValueError("J_1 is unknotted and has no band surgery description")
    n = fid.n
    m = n + fid.eps
    return two_bridge_normalize(
        ReducedFraction(1, 2 * m + 1), ReducedFraction(2 * n, 2 * n - 1)
    )


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
