"""The pinch move calculus on torus knots.

A pinch move takes T(p, q) to T(|p - 2t|, |q - 2h|), where t and h are the
smallest nonnegative solutions of t = -q^{-1} (mod p) and h = p^{-1} (mod q).
Iterating always reaches the unknot, and the number of moves needed is the
pinch number of the knot.
"""

from array import array
from dataclasses import dataclass
from math import gcd

from .arith import mod_inverse_smallest


class InvalidKnotError(ValueError):
    """The parameters do not name a torus knot (negative or non-coprime)."""


class CannotPinchUnknotError(ValueError):
    """A pinch move needs a nontrivial torus knot."""


class IterationCapError(RuntimeError):
    """A pinch sequence ran past its provable length bound; indicates a bug."""


@dataclass(frozen=True)
class TorusKnotParams:
    """An ordered coprime pair (p, q) naming the torus knot T(p, q).

    The pair is orientation sensitive for the calculus here (witnesses and
    signs depend on the coordinate order) even though T(p, q) and T(q, p)
    are the same knot; compare knots through canonical().
    """

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise InvalidKnotError(
                f"coordinates must be nonnegative, got ({self.p}, {self.q})"
            )
        if gcd(self.p, self.q) != 1:
            raise InvalidKnotError(f"({self.p}, {self.q}) is not a coprime pair")

    def is_unknot(self) -> bool:
        return self.p <= 1 or self.q <= 1

    def swap(self) -> "TorusKnotParams":
        return TorusKnotParams(self.q, self.p)

    def canonical(self) -> "TorusKnotParams":
        """The orientation with first coordinate <= second."""
        return self if self.p <= self.q else self.swap()

    def same_knot(self, other: "TorusKnotParams") -> bool:
        return self.canonical() == other.canonical()

    def __str__(self):
        return f"({self.p},{self.q})"


@dataclass(frozen=True)
class PinchStep:
    """One pinch move, with its witnesses and both raw sign values.

    sign is +1 or -1: the sign of p - 2t, falling back to q - 2h when the
    former is zero.  Both cannot vanish for a coprime pair (that would force
    p and q both even), and for valid inputs the two values never have
    opposite signs; both raws are kept so callers can audit.
    """

    source: TorusKnotParams
    target: TorusKnotParams
    t: int
    h: int
    p_minus_2t: int
    q_minus_2h: int
    sign: int


@dataclass(frozen=True)
class PinchSequence:
    """The full chain of pinch moves from start down to an unknot."""

    start: TorusKnotParams
    steps: tuple[PinchStep, ...]

    @property
    def pinch_number(self) -> int:
        return len(self.steps)

    def knots(self) -> list[TorusKnotParams]:
        """Every knot visited, start first and the terminal unknot last."""
        return [self.start] + [s.target for s in self.steps]


def pinch_witnesses(p: int, q: int) -> tuple[int, int]:
    """The smallest nonnegative t = -q^{-1} (mod p) and h = p^{-1} (mod q).

    One inverse suffices: p*h - 1 is a nonnegative multiple of q, and its
    quotient lies in [0, p) with q*(p*h - 1)/q = -1 (mod p), so it is
    exactly the least witness t.
    """
    h = mod_inverse_smallest(p, q)
    return (p * h - 1) // q, h


def pinch_move(k: TorusKnotParams) -> PinchStep:
    """Apply one pinch move to a nontrivial torus knot."""
    if k.is_unknot():
        raise CannotPinchUnknotError(f"T{k} is unknotted and cannot be pinched")
    p, q = k.p, k.q
    t, h = pinch_witnesses(p, q)
    raw_p = p - 2 * t
    raw_q = q - 2 * h
    if raw_p == 0 and raw_q == 0:
        raise RuntimeError(f"T{k}: witnesses ({t}, {h}) leave no sign")
    sign = 1 if (raw_p > 0 or (raw_p == 0 and raw_q > 0)) else -1
    return PinchStep(
        source=k,
        target=TorusKnotParams(abs(raw_p), abs(raw_q)),
        t=t,
        h=h,
        p_minus_2t=raw_p,
        q_minus_2h=raw_q,
        sign=sign,
    )


def iteration_cap(k: TorusKnotParams) -> int:
    """A provable bound on the pinch number of k.

    Each move has 1 <= t <= p-1 and 1 <= h <= q-1, so both coordinates
    shrink by at least 2; min(p, q) // 2 + 1 moves therefore always suffice.
    """
    return min(k.p, k.q) // 2 + 1


def pinch_sequence(k: TorusKnotParams) -> PinchSequence:
    """The unique chain of pinch moves from k to an unknot.

    Empty when k is already unknotted.  Exceeding the iteration cap raises
    IterationCapError instead of looping forever.
    """
    steps: list[PinchStep] = []
    cap = iteration_cap(k)
    cur = k
    while not cur.is_unknot():
        if len(steps) >= cap:
            raise IterationCapError(f"T{k} still nontrivial after {cap} pinches")
        step = pinch_move(cur)
        steps.append(step)
        cur = step.target
    return PinchSequence(start=k, steps=tuple(steps))


def pinch_number(k: TorusKnotParams) -> int:
    """The number of pinch moves from k to the unknot; 0 for unknots."""
    return pinch_sequence(k).pinch_number


# the largest lengths table sweep_termination allocates, in bytes (limit 23169)
SWEEP_MAX_BYTES = 1 << 30


def sweep_termination(limit: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Check every coprime pair 2 <= p <= q <= limit against the iteration cap.

    Sequence lengths are memoized over canonical pairs (they are invariant
    under swapping, since one step on the swapped pair gives the swapped
    result), so the whole range costs a single pinch step per pair.  Returns
    (pairs_checked, violations) where each violation is (p, q, length, cap);
    an empty list means every pinch sequence in range fits its cap.

    Raises ValueError when the 2 (limit+1)^2 byte table would pass SWEEP_MAX_BYTES.
    """
    if limit < 2:
        return 0, []
    side = limit + 1
    if 2 * side * side > SWEEP_MAX_BYTES:
        raise ValueError(f"limit {limit} needs a table over {SWEEP_MAX_BYTES} bytes")
    lengths = array("h", [0]) * (side * side)
    witnesses = pinch_witnesses
    pair_gcd = gcd
    checked = 0
    violations = []
    # ascending p: a step shrinks both coordinates by >= 2, so the successor's
    # canonical pair sits in an already finished row
    for p in range(2, side):
        cap = p // 2 + 1
        row = p * side
        for q in range(p + 1, side):
            if pair_gcd(p, q) != 1:
                continue
            t, h = witnesses(p, q)
            r = p - 2 * t
            if r < 0:
                r = -r
            s = q - 2 * h
            if s < 0:
                s = -s
            if r > s:
                r, s = s, r
            if r >= 2:
                below = lengths[r * side + s]
                if below <= 0:
                    raise RuntimeError(f"T({p}, {q}) steps to unswept T({r}, {s})")
                n_steps = 1 + below
            else:
                n_steps = 1
            lengths[row + q] = n_steps
            checked += 1
            if n_steps > cap:
                violations.append((p, q, n_steps, cap))
    return checked, violations
