"""Exact rational and continued fraction primitives.

Everything here runs on unbounded Python integers; nothing wraps or rounds.
"""

from math import gcd
from operator import attrgetter, index


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
    a, b = index(a), index(b)  # refuses a float, which would give a float triple
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


class Value:
    """Base of the frozen records that validate their fields in __init__,
    whose fields are their __slots__: equal only within one class, hashed
    by field, shown as Name(f=v, ...).  A record that validates nothing is
    a named tuple instead.  Hand-written: importing dataclasses costs a
    command more than its work.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class ReducedFraction(Value):
    """A reduced rational slope num/den in Q together with 1/0.

    The denominator is kept nonnegative with the sign on the numerator, and
    (1, 0) is the unique representation of the infinite slope: anything
    nonzero over zero normalizes to it.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        g = gcd(num, den)
        if g == 0:
            raise ValueError("0/0 is not a slope")
        # the sign of g moves the sign onto the numerator, and x/0 to 1/0
        if den < 0 or den == 0 and num < 0:
            g = -g
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def __str__(self):
        return f"{self.num}/{self.den}"


class EvenCF(Value):
    """Coefficients of an all-even continued fraction 1/(a1 + 1/(a2 + ...))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        # index() refuses a float, which would otherwise pass as even
        coeffs = tuple(map(index, coeffs))
        if not coeffs:
            raise ValueError("continued fraction needs at least one entry")
        for a in coeffs:
            if a == 0 or a % 2 != 0:
                raise ValueError(f"entries must be even and nonzero, got {a}")
        object.__setattr__(self, "coeffs", coeffs)

    def __str__(self):
        return "[" + ",".join(str(a) for a in self.coeffs) + "]"


def cf_even_expand(f: ReducedFraction) -> EvenCF:
    """The all-even expansion [a1, ..., ak] with f = 1/(a1 + 1/(... + 1/ak)).

    Defined for 0 < |f| < 1.  Each step takes the even integer nearest the
    running reciprocal, the unique even choice leaving a residual strictly
    inside (-1, 1), then recurses on the residual's reciprocal.  When a
    reciprocal lands exactly on an odd integer no even entry can continue
    and NoEvenExpansionError is raised.

    A block of +-2 entries is one step.  The reciprocal num/den keeps
    |num| > den > 0; while also g = |num| - den < den, with s = sign(num),
    the entry is 2s and the next reciprocal -s den/(den - g) has the same g.
    So m = (den - 1) // g entries 2s, -2s, ... leave den - m g <= g and
    |num| = den + g of sign s (-1)^m, and none meets an odd integer: each
    entry outside a block costs a divmod, and each block O(1) arithmetic.
    """
    if f.den == 0 or f.num == 0 or abs(f.num) >= f.den:
        raise ValueError(f"even expansion needs 0 < |f| < 1, got {f}")
    coeffs = []
    # running reciprocal num/den, denominator kept positive
    num, den = (f.den, f.num) if f.num > 0 else (-f.den, -f.num)
    while True:
        if -2 * den < num < 2 * den:
            g, s = abs(num) - den, 1 if num > 0 else -1
            m = (den - 1) // g
            coeffs += [2 * s, -2 * s] * (m >> 1)
            coeffs += [2 * s] * (m & 1)
            den -= m * g
            num = (den + g) * (-s if m & 1 else s)
        # num/den = 2 half + (rem - den)/den, the residual in [-1, 1)
        half, rem = divmod(num + den, 2 * den)
        if rem == 0:
            raise NoEvenExpansionError(
                f"{f}: reciprocal chain hits the odd integer {2 * half - 1}"
            )
        coeffs.append(2 * half)
        resid = rem - den
        if resid == 0:
            return EvenCF(tuple(coeffs))
        # next reciprocal is den/resid; |resid| < den, so this terminates
        num, den = (den, resid) if resid > 0 else (-den, -resid)


def cf_evaluate(cf) -> ReducedFraction:
    """Exact value of [a1, ..., ak] read as 1/(a1 + 1/(a2 + ... + 1/ak)).

    Accepts an EvenCF or any sequence of nonzero integers; a non-integral
    entry raises TypeError.  Raises DegenerateCFError if some tail evaluates
    to zero, making the next reciprocal undefined.
    """
    coeffs = list(cf.coeffs) if isinstance(cf, EvenCF) else [index(a) for a in cf]
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
