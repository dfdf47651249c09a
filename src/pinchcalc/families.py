"""The torus knot families K_n = T(4n, (2n+1)^2) and J_n = T(4n, (2n-1)^2).

Both families have pinch number 2n (J_1 = T(4, 1) is already unknotted),
their pinch sequences follow one closed form, whose steps closed_form_step
gives as plain (p, q) pairs, and four pinch moves send J_n to K_{n-2}.
The two checks take the chains they read, the runs of pinch_sequence, and
build none: verify_j_to_k reads the fourth target from the strides, and
verify_k_independence solves one quadratic a run, so neither walks the
moves.  `verify` passes both the one chain it builds for each member.
"""

from math import isqrt
from operator import index

from .arith import Value
from .pinch import PinchRun, TorusKnotParams


class FamilyId(Value):
    """One member of the K or J family."""

    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int):
        if family not in ("K", "J"):
            raise ValueError(f"family must be 'K' or 'J', got {family!r}")
        n = index(n)  # refuses a float, which would fail later, inside gcd
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)

    @property
    def eps(self) -> int:
        """+1 for the K branch, -1 for the J branch."""
        return 1 if self.family == "K" else -1

    @property
    def is_trivial(self) -> bool:
        """J_1 = T(4, 1) is the unknot; every other member is knotted."""
        return self.family == "J" and self.n == 1

    def __str__(self):
        return f"{self.family}_{self.n}"


def family_knot(fid: FamilyId) -> TorusKnotParams:
    """T(4n, (2n+1)^2) for K_n, or T(4n, (2n-1)^2) for J_n."""
    odd = 2 * fid.n + fid.eps
    return TorusKnotParams(4 * fid.n, odd * odd)


def closed_form_step(fid: FamilyId, k: int) -> tuple[int, int]:
    """The (p, q) pair after k pinches on the member fid, T(4n, (2n+eps)^2).

    Returns (4n - 2k, (2n+eps)^2 - 2k(n+eps)), in the order of family_knot
    and PinchSequence.knots(); k = 2n gives (0, 1), the unknot.  eps is +1
    on the K branch and -1 on the J branch.  Every pair has q = (n+eps)p + 1.
    """
    n, eps = fid.n, fid.eps
    k = index(k)  # refuses a float, which would otherwise give a float pair
    if not 0 <= k <= 2 * n:
        raise ValueError(f"k must lie in [0, {2 * n}], got {k}")
    odd = 2 * n + eps
    return 4 * n - 2 * k, odd * odd - 2 * k * (n + eps)


def verify_j_to_k(runs: tuple[PinchRun, ...], target: tuple[int, int]) -> bool:
    """Whether the chain of runs has a fourth move, and it lands on target,
    a (p, q) pair; a chain of fewer than four moves fails.  For J_n, target
    is K_{n-2} in family_knot order, not up to swapping, with K_0 = T(0, 1).
    The fourth target is the start of the run that holds move 4 less left
    strides, left the moves still to make there.  Each stride up to that run
    is read, and so its run checked, as rows() would."""
    left = 4
    for run in runs:
        dp, dq = run.stride
        if left <= run.count:
            return (run.p - left * dp, run.q - left * dq) == target
        left -= run.count
    return False


def _k_members_on(runs: tuple[PinchRun, ...], max_n: int) -> list[int]:
    """The n of each K_n, n <= max_n, that the chain of runs visits, in order.

    Move k of a run lands on (p, q) - k * stride, and K_n = T(4n, (2n+1)^2)
    is the knot (x, y) with x > 0, x = 0 (mod 4) and 4y = (x + 2)^2.  On the
    line (x0 - k dx, y0 - k dy) that equation is quadratic in k,

        a k^2 + b k + c = 0,  a = dx^2,  b = 4 dy - 2 s dx,  c = s^2 - 4 y0,

    with s = x0 + 2, and a > 0: pinch_runs keeps 0 < t < p and 0 < h < q, so
    both coordinates of every stride are positive.  It is solved exactly in
    each coordinate order: its integer roots are among the floors of
    (-b -+ isqrt(b^2 - 4ac)) / 2a, and each candidate is checked on the line
    itself.  k runs over [0, count] on the first run and [1, count] on the
    later ones, whose start is the previous run's end, so each knot visited
    counts once.  Reading each stride checks its run.
    """
    hits = []
    lo = 0
    for run in runs:
        dp, dq = run.stride
        found = []
        for x0, y0, dx, dy in ((run.p, run.q, dp, dq), (run.q, run.p, dq, dp)):
            s = x0 + 2
            a, b, c = dx * dx, 4 * dy - 2 * s * dx, s * s - 4 * y0
            disc = b * b - 4 * a * c
            if disc < 0:
                continue
            r = isqrt(disc)
            for k in {(-b - r) // (2 * a), (-b + r) // (2 * a)}:
                x, y = x0 - k * dx, y0 - k * dy
                if (lo <= k <= run.count and 0 < x <= 4 * max_n and x % 4 == 0
                        and 4 * y == (x + 2) ** 2):
                    found.append((k, x // 4))
        hits += [n for _, n in sorted(found)]
        lo = 1
    return hits


def verify_k_independence(k_chains, max_n: int) -> list[tuple[int, int]]:
    """The (m, n) pairs, m != n <= max_n, whose K_m chain visits K_n, in
    order: empty when no K chain passes through another member.  k_chains
    are the runs of K_1, K_2, ... in turn, each read run by run: the members
    on a run are the roots of one quadratic in the move count, so each chain
    costs O(runs), one run for every K_m."""
    return [(m, n) for m, runs in enumerate(k_chains, 1)
            for n in _k_members_on(runs, max_n) if n != m]
