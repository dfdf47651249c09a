from itertools import islice
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pinchcalc import families
from pinchcalc.families import (
    FamilyId,
    closed_form_step,
    family_knot,
    verify_j_to_k,
    verify_k_independence,
)
from pinchcalc.pinch import (
    TorusKnotParams,
    pinch_runs,
    pinch_sequence,
)

from oracles import move_chain


def j_to_k_entry(n):
    """(runs of J_n's chain, K_(n-2) as a (p, q) pair, T(0, 1) for n = 2)."""
    k = TorusKnotParams(0, 1) if n == 2 else family_knot(FamilyId("K", n - 2))
    return pinch_sequence(family_knot(FamilyId("J", n))).runs, (k.p, k.q)


def k_chains(max_n):
    """The runs of K_1..K_max_n, in turn."""
    return [pinch_sequence(family_knot(FamilyId("K", m))).runs
            for m in range(1, max_n + 1)]


class TestFamilyId:
    def test_bool_n_is_its_integer(self):
        fid = FamilyId("J", True)
        assert type(fid.n) is int and fid.n == 1
        assert str(fid) == "J_1" and fid.is_trivial

    def test_triviality(self):
        assert FamilyId("J", 1).is_trivial
        assert not FamilyId("J", 2).is_trivial
        assert not FamilyId("K", 1).is_trivial


class TestClosedForm:
    def test_is_affine_in_k(self):
        # the premise of the closed_form section's run check: the formula's
        # first term, first difference and length fix every step
        for n in range(1, 201):
            for fid in (FamilyId("K", n), FamilyId("J", n)):
                (p0, q0), (p1, q1) = (closed_form_step(fid, k) for k in (0, 1))
                for k in range(2 * n + 1):
                    assert closed_form_step(fid, k) == (
                        p0 - k * (p0 - p1), q0 - k * (q0 - q1))
                # k = 2n lands on the unknot; c03 starts J at n = 2, so J_1 is checked here only
                assert closed_form_step(fid, 2 * n) == (0, 1)


class TestJToK:
    def test_holds_at_large_n(self):
        # four pinches on 10^12-scale members, move by move and from the run
        n = 10**12
        assert verify_j_to_k(*j_to_k_entry(n))
        (run,) = pinch_runs(family_knot(FamilyId("J", n)))
        *_, fourth = islice(run.rows(), 4)
        k = family_knot(FamilyId("K", n - 2))
        assert fourth[4:] == (k.p, k.q)

    @given(st.tuples(*[st.one_of(st.integers(0, 40), st.integers(0, 2**20 - 1))] * 2)
           .filter(lambda pair: gcd(*pair) == 1))
    def test_holds_matches_the_step_oracle_on_any_chain(self, pair):
        # a J chain is one run; many of these chains reach move 4 in a later
        # run, or end before it after several runs.  Both targets are read in
        # family_knot order: the oracle's fourth target, or the last one of
        # a shorter chain, and a pair with its p and another q, which no
        # move reaches, as every move lowers both coordinates
        k = TorusKnotParams(*pair)
        chain = move_chain(k, 4)
        last = chain[-1].target if chain else k
        runs = pinch_runs(k)
        for target in ((last.p, last.q), (last.p, last.q + 1)):
            expected = len(chain) == 4 and (last.p, last.q) == target
            assert verify_j_to_k(runs, target) == expected

    def test_short_chain_fails(self):
        # T(4, 9)'s chain has two moves, not four, and ends on T(0, 1)
        runs = pinch_runs(TorusKnotParams(4, 9))
        assert sum(run.count for run in runs) == 2
        assert verify_j_to_k(runs, (0, 1)) is False

    def test_a_missed_target_fails(self):
        # J_3's fourth move lands on K_1 = T(4, 9), not on T(4, 11)
        runs, target = j_to_k_entry(3)
        assert target == (4, 9)
        assert verify_j_to_k(runs, (4, 11)) is False
        assert verify_j_to_k(runs, target) is True


class TestKIndependence:
    def test_finds_a_collision(self):
        # K_3's chain swapped for J_3 = T(12, 25)'s, which passes through K_1 = T(4, 9)
        chains = k_chains(5)
        chains[2] = j_to_k_entry(3)[0]
        assert verify_k_independence(chains, 5) == [(3, 1)]
        assert verify_k_independence(k_chains(5), 5) == []
        # the first chain is read too: K_2's chain in K_1's place starts at K_2
        chains = k_chains(5)
        chains[0] = chains[1]
        assert verify_k_independence(chains, 5) == [(1, 2)]

    @pytest.mark.parametrize("max_n, chains_hit", [(60, 198), (3, 194)])
    def test_run_roots_match_a_knot_scan(self, max_n, chains_hit):
        # the quadratic's roots on each run against the members met by a walk
        # over every knot the chain visits, in both coordinate orders; at
        # max_n = 3 the chains also pass K_4 = T(16, 81), past the bound
        members = {}
        for n in range(1, max_n + 1):
            k = family_knot(FamilyId("K", n))
            members[k.p, k.q] = n
        hits = 0
        for p in range(100):
            for q in range(100):
                if gcd(p, q) != 1:
                    continue
                seq = pinch_sequence(TorusKnotParams(p, q))
                scan = [members[min(c), max(c)] for c in seq.knots()
                        if (min(c), max(c)) in members]
                assert families._k_members_on(seq.runs, max_n) == scan
                hits += bool(scan)
        assert hits == chains_hit

    def test_run_roots_stop_at_the_run_end(self):
        # J_3's one run passes K_1 = T(4, 9) on its fourth move, not before
        (run,) = pinch_runs(family_knot(FamilyId("J", 3)))
        assert families._k_members_on((run,), 60) == [1]
        assert families._k_members_on((run._replace(count=3),), 60) == []
