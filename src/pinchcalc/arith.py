"""Exact rational and continued fraction primitives.

Everything here runs on unbounded Python integers; nothing wraps or rounds.
"""

from dataclasses import dataclass
from math import gcd


class NotInvertibleError(ValueError):
    """A modular inverse was requested for non-coprime arguments."""


class NoEvenExpansionError(ValueError):
    """The fraction has no all-even continued fraction expansion."""


class DegenerateCFError(ValueError):
    """Evaluating a continued fraction divided by an intermediate zero."""


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: (g, x, y) with g = gcd(|a|, |b|) > 0 and a*x + b*y = g.

    Raises ValueError on (0, 0), where the gcd is undefined.
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_inverse_smallest(a: int, m: int) -> int:
    """The unique u with 0 <= u < m and a*u = 1 (mod m); 0 when m = 1."""
    if m < 1:
        raise ValueError(f"modulus must be >= 1, got {m}")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"{a} is not invertible mod {m} (gcd {gcd(a, m)})"
        ) from None


@dataclass(frozen=True)
class ReducedFraction:
    """A reduced rational slope num/den in Q together with 1/0.

    The denominator is kept nonnegative with the sign on the numerator, and
    (1, 0) is the unique representation of the infinite slope: anything
    nonzero over zero normalizes to it.
    """

    num: int
    den: int

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a slope")
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __str__(self):
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class EvenCF:
    """Coefficients of an all-even continued fraction 1/(a1 + 1/(a2 + ...))."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("continued fraction needs at least one entry")
        for a in self.coeffs:
            if a == 0 or a % 2 != 0:
                raise ValueError(f"entries must be even and nonzero, got {a}")

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.coeffs) + "]"


def cf_even_expand(f: ReducedFraction) -> EvenCF:
    """The all-even expansion [a1, ..., ak] with f = 1/(a1 + 1/(... + 1/ak)).

    Defined for 0 < |f| < 1.  Each step takes the even integer nearest the
    running reciprocal, the unique even choice leaving a residual strictly
    inside (-1, 1), then recurses on the residual's reciprocal.  When a
    reciprocal lands exactly on an odd integer no even entry can continue
    and NoEvenExpansionError is raised.
    """
    if f.den == 0 or f.num == 0 or abs(f.num) >= f.den:
        raise ValueError(f"even expansion needs 0 < |f| < 1, got {f}")
    coeffs = []
    # running reciprocal num/den, denominator kept positive
    num, den = (f.den, f.num) if f.num > 0 else (-f.den, -f.num)
    while True:
        half, rem = divmod(num, 2 * den)
        if rem == 0:
            coeffs.append(2 * half)
            break
        if rem == den:
            raise NoEvenExpansionError(
                f"{f}: reciprocal chain hits the odd integer {2 * half + 1}"
            )
        if rem < den:
            entry = 2 * half
            resid = rem
        else:
            entry = 2 * half + 2
            resid = rem - 2 * den
        coeffs.append(entry)
        # next reciprocal is den/resid; |resid| < den, so this terminates
        num, den = (den, resid) if resid > 0 else (-den, -resid)
    return EvenCF(tuple(coeffs))


def cf_evaluate(cf) -> ReducedFraction:
    """Exact value of [a1, ..., ak] read as 1/(a1 + 1/(a2 + ... + 1/ak)).

    Accepts an EvenCF or any sequence of nonzero integers.  Raises
    DegenerateCFError if some tail evaluates to zero, making the next
    reciprocal undefined.
    """
    coeffs = list(cf.coeffs) if isinstance(cf, EvenCF) else [int(a) for a in cf]
    if not coeffs:
        raise ValueError("continued fraction needs at least one entry")
    if any(a == 0 for a in coeffs):
        raise ValueError("continued fraction entries must be nonzero")
    num, den = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        if num == 0:
            raise DegenerateCFError("zero tail value inside the continued fraction")
        num, den = a * num + den, num
    return ReducedFraction(den, num)
