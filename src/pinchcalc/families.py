"""The torus knot families K_n = T(4n, (2n+1)^2) and J_n = T(4n, (2n-1)^2).

Both families have pinch number 2n (J_1 = T(4, 1) is already unknotted),
their pinch sequences follow one closed form, whose steps closed_form_step
gives as plain (p, q) pairs, and four pinch moves send J_n to K_{n-2}.
"""

from dataclasses import dataclass

from .pinch import PinchSequence, TorusKnotParams, pinch_move, pinch_runs


@dataclass(frozen=True)
class FamilyId:
    """One member of the K or J family."""

    family: str
    n: int

    def __post_init__(self):
        if self.family not in ("K", "J"):
            raise ValueError(f"family must be 'K' or 'J', got {self.family!r}")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")

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


def closed_form_step(n: int, eps: int, k: int) -> tuple[int, int]:
    """The (p, q) pair after k pinches on T(4n, (2n+eps)^2).

    Returns (4n - 2k, (2n+eps)^2 - 2k(n+eps)), in the order of family_knot
    and PinchSequence.knots(); k = 2n gives (0, 1), the unknot.  eps is +1
    on the K branch and -1 on the J branch.
    """
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= k <= 2 * n:
        raise ValueError(f"k must lie in [0, {2 * n}], got {k}")
    odd = 2 * n + eps
    return 4 * n - 2 * k, odd * odd - 2 * k * (n + eps)


def verify_j_to_k(n: int) -> bool:
    """Check that four pinch moves send J_n to K_{n-2}, with K_0 = T(0, 1),
    comparing (p, q) pairs in family_knot order, not up to swapping."""
    if n < 2:
        raise ValueError(f"needs n >= 2, got {n}")
    cur = family_knot(FamilyId("J", n))
    for _ in range(4):
        cur = pinch_move(cur).target
    if n == 2:
        return cur == TorusKnotParams(0, 1)
    return cur == family_knot(FamilyId("K", n - 2))


def verify_k_independence(max_n: int) -> list[tuple[int, int]]:
    """Scan the pinch sequences of K_1..K_max_n for visits to other members.

    Returns the offending (m, n) pairs, empty when no sequence starting at
    some K_m passes through a different K_n.  Each chain is read as the
    (p, q) pairs of PinchSequence.knots(), so every run is checked once.
    """
    if max_n < 1:
        raise ValueError(f"needs max_n >= 1, got {max_n}")
    members = {}
    for n in range(1, max_n + 1):
        k = family_knot(FamilyId("K", n)).canonical()
        members[k.p, k.q] = n
    violations = []
    for m in range(1, max_n + 1):
        knot = family_knot(FamilyId("K", m))
        for p, q in PinchSequence(knot, pinch_runs(knot)).knots():
            hit = members.get((p, q) if p <= q else (q, p))
            if hit is not None and hit != m:
                violations.append((m, hit))
    return violations
