"""The pinch move calculus on torus knots.

A pinch move takes T(p, q) to T(|p - 2t|, |q - 2h|), where t and h are the
smallest nonnegative solutions of t = -q^{-1} (mod p) and h = p^{-1} (mod q).
Iterating always reaches the unknot, and the number of moves needed is the
pinch number of the knot.  The chain falls into a few runs of moves that
each subtract one fixed pair from (p, q); pinch_runs finds them with one
modular inverse per chain, plus a division by the current knot per run.

The pinch number alone needs no moves.  Every coprime p/q other than 0/1
and 1/0 is the mediant L (+) R of its parents in the Stern-Brocot tree,
L = a/b < R = c/d with bc - ad = 1.  Then (a, b) are the least witnesses of
T(p, q), and its move lands on (|c - a|, |d - b|): the other parent of its
younger parent.  Stepping from Y = L (+) R to the child L (+) Y replaces R
by Y, and to Y (+) R replaces L, so a knotted child's pinch number is

    N(child) = 1 + N(the parent of Y that the child does not have).

swept_pinch_numbers applies this to every node of a walk.  pinch_number
applies it a block at a time along the path of p/q = [a0; a1, ..., am],
which is R^a0 L^a1 R^a2 ... with am - 1 steps in the last block.  Within a
block one side stays fixed and the other side S is replaced at each step,
so the nodes get 1 + N_S, 1 + N_Y, 2 + N_S, 2 + N_Y, ...: m steps make
N_Y = ceil(m/2) + (N_S if m is odd, else N_Y), and the replaced side
N_S = floor(m/2) + (N_Y if m is odd, else N_S).  The first nonempty block
runs along the unknots j/1 or 1/j, so it leaves all three at 0.
"""

from collections.abc import Iterator
from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

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


class PinchRun(NamedTuple):
    """count consecutive pinch moves of one sign, the first from T(p, q).

    Plain ints: (p, q) is the start knot and (t, h) the witnesses of the
    first move.  A positive run keeps them on every move, since
    (p - 2t)h - (q - 2h)t = ph - qt; a negative run keeps their complement
    (u, v) = (p - t, q - h) instead, so its move j has witnesses
    (p_j - u, q_j - v).  Either way each move subtracts the same stride
    from (p, q), and rows() is the one walk over the run's moves.

    A NamedTuple rather than a frozen dataclass: defining one costs a
    tenth as much at import, which every command line start pays.
    """

    p: int
    q: int
    t: int
    h: int
    count: int
    sign: int

    @property
    def stride(self) -> tuple[int, int]:
        """What each move subtracts: (2t, 2h) if positive, (2u, 2v) if negative."""
        if self.sign > 0:
            return 2 * self.t, 2 * self.h
        return 2 * (self.p - self.t), 2 * (self.q - self.h)

    def rows(self) -> Iterator[tuple[int, int, int, int, int, int]]:
        """The run's moves as plain ints (p, q, t, h, p', q'): source, witnesses,
        target.

        Raises RuntimeError, before the first move, unless the witness
        identity ph - qt = 1 holds and the run's end (p, q) - count * stride
        is nonnegative.  These two checks, made once, make every target a
        coprime pair.  The end bound keeps each move's p_j - 2t_j and
        q_j - 2h_j of the run's sign or zero, so each move subtracts the
        stride.  A positive run moves (p, q) by multiples of (t, h), and a
        negative run moves (p, q) and (t, h) alike by multiples of (u, v);
        neither changes ph - qt, so p_j h_j - q_j t_j = 1 on every move.  The
        target (|p_j - 2t_j|, |q_j - 2h_j|) then has
        (p_j - 2t_j) h_j - (q_j - 2h_j) t_j = 1, so its gcd is 1: the checks
        catch every run that a gcd per move would.
        """
        dp, dq = self.stride
        p, q, t, h = self.p, self.q, self.t, self.h
        if p * h - q * t != 1 or min(p - self.count * dp, q - self.count * dq) < 0:
            raise RuntimeError(
                f"T({p},{q}): ({t}, {h}) do not start a run of {self.count} moves")
        # witnesses stay put on a positive run and fall by the stride on a
        # negative one, where p_j - u and q_j - v shrink with p_j and q_j
        dt, dh = (0, 0) if self.sign > 0 else (dp, dq)
        for _ in range(self.count):
            p2, q2 = abs(p - 2 * t), abs(q - 2 * h)
            yield p, q, t, h, p2, q2
            p, q, t, h = p2, q2, t - dt, h - dh


@dataclass(frozen=True)
class PinchSequence:
    """The chain of pinch moves from start down to an unknot, held as its runs.

    Counts are sums over the runs and cost O(runs); knots() and steps
    expand each move from the rows of the runs.
    """

    start: TorusKnotParams
    runs: tuple[PinchRun, ...]

    @property
    def pinch_number(self) -> int:
        return sum(run.count for run in self.runs)

    @property
    def negative_count(self) -> int:
        return sum(run.count for run in self.runs if run.sign < 0)

    @property
    def equals_pinch_minus_one(self) -> bool:
        """The Jabuka-Van Cott verdict: the lower bound reaches pinch number - 1."""
        return self.negative_count == 1

    @property
    def steps(self) -> tuple[PinchStep, ...]:
        """Every move as a PinchStep, from the rows; only the benchmark's
        tracer (perfbench/spans.py) reads it, to count each chain's runs."""
        steps, source = [], self.start
        for run in self.runs:
            for p, q, t, h, c, d in run.rows():
                target = TorusKnotParams(c, d)
                steps.append(PinchStep(source, target, t, h, p - 2 * t, q - 2 * h, run.sign))
                source = target
        return tuple(steps)

    def knots(self) -> list[tuple[int, int]]:
        """Every knot visited as (p, q), start first and the terminal unknot last."""
        return [(self.start.p, self.start.q)] + [
            (c, d) for run in self.runs for _, _, _, _, c, d in run.rows()]


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


def pinch_runs(k: TorusKnotParams) -> tuple[PinchRun, ...]:
    """The pinch sequence of k as maximal runs, with one modular inverse in all.

    pinch_witnesses is called once, on k, and only when k is knotted.  Every
    run then reduces the pair it carries with one division by the current
    knot (p', q'): a pair (T, H) with p'H - q'T = 1 gives the least
    witnesses (T - jp', H - jq') for j = T // p'.  The first run carries k's
    least witnesses, so its j is 0.  After a positive run its witnesses
    (t, h) are such a pair, since each move keeps ph - qt.  After a negative
    run the negated complement (-u, -v) = (t - p, h - q) is one, since
    pv - qu = -1 and each move subtracts a multiple of (u, v).

    Builds no knot: each run start is carried as plain ints, and the check
    below, 0 < t < p, 0 < h < q and ph - qt = 1, is what proves it coprime.
    Empty when k is already unknotted.  Raises RuntimeError when a run's
    witnesses break that check, which also certifies each carried pair as
    the least witnesses, and IterationCapError when the moves pass the
    iteration cap.
    """
    runs: list[PinchRun] = []
    cap = iteration_cap(k)
    total = 0
    p, q = k.p, k.q
    if p > 1 and q > 1:
        t, h = pinch_witnesses(p, q)
    while p > 1 and q > 1:
        j = t // p
        t, h = t - j * p, h - j * q
        if not (0 < t < p and 0 < h < q and p * h - q * t == 1):
            raise RuntimeError(f"T({p},{q}): ({t}, {h}) are not its pinch witnesses")
        if p > 2 * t:
            # (p_j, q_j) = (p - 2jt, q - 2jh) moves positively while p_j > 2t
            sign, count = 1, (p - 1) // (2 * t)
        else:
            # (p_j, q_j) = (p - 2ju, q - 2jv) moves negatively while p_j >= 2u
            sign, count = -1, p // (2 * (p - t))
        if count < 1:
            raise RuntimeError(f"T({p},{q}): witnesses ({t}, {h}) start an empty run")
        total += count
        if total > cap:
            raise IterationCapError(f"T{k} still nontrivial after {cap} pinches")
        run = PinchRun(p, q, t, h, count, sign)
        runs.append(run)
        if sign < 0:
            # carry the negated complement (-u, -v) to the next run
            t, h = t - p, h - q
        dp, dq = run.stride
        p, q = p - count * dp, q - count * dq
    return tuple(runs)


def pinch_sequence(k: TorusKnotParams) -> PinchSequence:
    """The unique chain of pinch moves from k to an unknot, as its runs.

    Empty when k is already unknotted.  Costs what pinch_runs costs; callers
    that need each move read PinchRun.rows, as plain ints.
    """
    return PinchSequence(k, pinch_runs(k))


def pinch_number(k: TorusKnotParams) -> int:
    """The number of pinch moves from k to the unknot; 0 for unknots.

    One Euclid expansion: a divmod per partial quotient of p/q, each block
    of the Stern-Brocot path taken at once by the rule in the module
    docstring, with no modular inverse and no runs.  Raises
    IterationCapError when the count passes the iteration cap.
    """
    if k.is_unknot():
        return 0
    # pinch numbers are swap invariant.  With p > q the first block, a0
    # steps right along the unknots j/1, leaves every pinch number at 0
    p, q = max(k.p, k.q), min(k.p, k.q)
    p, q = q, p % q
    # side: the side the next block replaces; other: the side it keeps
    n = side = other = 0
    while q:
        m, r = divmod(p, q)
        if not r:
            m -= 1  # the last block has one step fewer
        p, q = q, r
        half = m >> 1
        n, side = n + half, side + half
        if m & 1:
            n, side = side + 1, n
        # the next block steps the other way, replacing the side this one kept
        side, other = other, side
    if n > iteration_cap(k):
        raise IterationCapError(f"T{k} has pinch number {n}, over its cap")
    return n


# the largest limit sweep_termination takes; it bounds the work, about
# 0.3 limit^2 = 1.6e8 pairs, since the walk's memory is linear in the limit
SWEEP_MAX_LIMIT = 23169


def swept_pinch_numbers(limit: int) -> Iterator[tuple[int, int, int]]:
    """(p, q, pinch number) for every coprime 2 <= p < q <= limit, by additions.

    A walk of the Stern-Brocot tree of (0, 1), by the recurrence of the
    module docstring: if p/q = a/b (+) c/d, the child a/b (+) p/q has pinch
    number 1 + N(c/d), and p/q (+) c/d has 1 + N(a/b).  A stack entry
    (a, b, N_a, c, d, N_c, g) is the mediant of a/b and c/d, whose pinch
    number g its parent worked out.  Each 1/q is an unknot; the other nodes
    lie once each in the right subtrees of the 1/q.
    Raises RuntimeError when the witnesses of a node with q == limit differ
    from pinch_witnesses.
    """
    for spine in range(2, (limit + 3) // 2):
        stack = [(1, spine, 0, 1, spine - 1, 0, 1)]
        pop, push = stack.pop, stack.append
        while stack:
            a, b, na, c, d, nc, n = pop()
            p, q = a + c, b + d
            yield p, q, n
            if q + b <= limit:
                push((a, b, na, p, q, n, 1 + nc))
            if q + d <= limit:
                push((p, q, n, c, d, nc, 1 + na))
            elif q == limit and pinch_witnesses(p, q) != (a, b):
                raise RuntimeError(f"T({p}, {q}) has tree witnesses ({a}, {b})")


def sweep_termination(limit: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """Check every coprime pair 2 <= p < q <= limit against the iteration cap.

    Pinch numbers are swap invariant, and swept_pinch_numbers gives them for
    p < q in memory linear in the limit and time quadratic in it.  Returns
    (pairs_checked, violations) where each violation is (p, q, length, cap),
    in order; an empty list means every pinch sequence in range fits its cap.

    Raises ValueError when the limit passes SWEEP_MAX_LIMIT.
    """
    if limit > SWEEP_MAX_LIMIT:
        raise ValueError(f"limit {limit} is over the sweep bound {SWEEP_MAX_LIMIT}")
    checked = 0
    violations = []
    for p, q, n in swept_pinch_numbers(limit):
        checked += 1
        if n > p // 2 + 1:
            violations.append((p, q, n, p // 2 + 1))
    violations.sort()
    return checked, violations
