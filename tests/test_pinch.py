import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinchcalc import pinch
from pinchcalc.pinch import (
    SWEEP_MAX_BYTES,
    CannotPinchUnknotError,
    InvalidKnotError,
    TorusKnotParams,
    iteration_cap,
    pinch_move,
    pinch_number,
    pinch_sequence,
    pinch_witnesses,
    sweep_termination,
)

coprime_pairs = st.tuples(st.integers(2, 2000), st.integers(2, 2000)).filter(
    lambda pq: gcd(*pq) == 1
)


def scan_witnesses(p, q):
    """Independent oracle: first t with q*t = -1 (mod p), first h with
    p*h = 1 (mod q), found by linear scan."""
    t = next(v for v in range(p) if (v * q + 1) % p == 0)
    h = next(v for v in range(q) if (v * p - 1) % q == 0)
    return t, h


class TestTorusKnotParams:
    def test_validation(self):
        with pytest.raises(InvalidKnotError):
            TorusKnotParams(4, 6)
        with pytest.raises(InvalidKnotError):
            TorusKnotParams(0, 0)
        with pytest.raises(InvalidKnotError):
            TorusKnotParams(-2, 3)

    def test_unknot_detection(self):
        assert TorusKnotParams(0, 1).is_unknot()
        assert TorusKnotParams(1, 0).is_unknot()
        assert TorusKnotParams(1, 1).is_unknot()
        assert TorusKnotParams(4, 1).is_unknot()
        assert not TorusKnotParams(2, 3).is_unknot()

    def test_canonical_and_same_knot(self):
        k = TorusKnotParams(9, 4)
        assert k.canonical() == TorusKnotParams(4, 9)
        assert k.same_knot(TorusKnotParams(4, 9))
        assert not k.same_knot(TorusKnotParams(2, 5))


class TestPinchMove:
    def test_4_9(self):
        step = pinch_move(TorusKnotParams(4, 9))
        assert step.target == TorusKnotParams(2, 5)
        assert (step.t, step.h, step.sign) == (3, 7, -1)

    def test_8_25(self):
        step = pinch_move(TorusKnotParams(8, 25))
        assert step.target == TorusKnotParams(6, 19)
        assert (step.t, step.h, step.sign) == (7, 22, -1)

    def test_2_3_sign_fallback(self):
        step = pinch_move(TorusKnotParams(2, 3))
        assert step.target == TorusKnotParams(0, 1)
        assert (step.t, step.h) == (1, 2)
        assert step.p_minus_2t == 0 and step.q_minus_2h == -1
        assert step.sign == -1

    def test_9_4_positive(self):
        step = pinch_move(TorusKnotParams(9, 4))
        assert step.target == TorusKnotParams(5, 2)
        assert (step.t, step.h, step.sign) == (2, 1, 1)

    def test_unknot_rejected(self):
        with pytest.raises(CannotPinchUnknotError):
            pinch_move(TorusKnotParams(1, 5))

    def test_exact_at_large_n(self):
        # n = 10**6: intermediates exceed 64 bits, must stay exact
        n = 10**6
        step = pinch_move(TorusKnotParams(4 * n, (2 * n + 1) ** 2))
        assert step.target == TorusKnotParams(4 * n - 2, (4 * n - 2) * (n + 1) + 1)

    @given(coprime_pairs)
    @settings(max_examples=200)
    def test_witnesses_match_scan_oracle(self, pq):
        p, q = pq
        if p > 400 or q > 400:
            return  # keep the scan oracle cheap here; bulk run below
        assert pinch_witnesses(p, q) == scan_witnesses(p, q)

    @given(coprime_pairs)
    def test_swap_symmetry(self, pq):
        p, q = pq
        a = pinch_move(TorusKnotParams(p, q)).target
        b = pinch_move(TorusKnotParams(q, p)).target
        assert (a.q, a.p) == (b.p, b.q)

    @given(coprime_pairs)
    def test_output_coprime_and_smaller(self, pq):
        p, q = pq
        step = pinch_move(TorusKnotParams(p, q))
        assert gcd(step.target.p, step.target.q) == 1
        assert step.target.p <= p - 2
        assert step.target.q <= q - 2

    @given(coprime_pairs)
    def test_raw_values_never_conflict(self, pq):
        # the two raw sign values never straddle zero, so the fallback
        # rule never has to adjudicate a disagreement
        step = pinch_move(TorusKnotParams(*pq))
        assert not (step.p_minus_2t > 0 > step.q_minus_2h)
        assert not (step.p_minus_2t < 0 < step.q_minus_2h)


class TestPinchSequence:
    def test_8_25_chain(self):
        seq = pinch_sequence(TorusKnotParams(8, 25))
        chain = [(k.p, k.q) for k in seq.knots()]
        assert chain == [(8, 25), (6, 19), (4, 13), (2, 7), (0, 1)]

    def test_12_25_chain(self):
        seq = pinch_sequence(TorusKnotParams(12, 25))
        chain = [(k.p, k.q) for k in seq.knots()]
        assert chain == [(12, 25), (10, 21), (8, 17), (6, 13), (4, 9), (2, 5), (0, 1)]

    def test_unknot_empty(self):
        seq = pinch_sequence(TorusKnotParams(1, 0))
        assert seq.steps == ()
        assert seq.pinch_number == 0

    def test_steps_chain_and_terminate(self):
        seq = pinch_sequence(TorusKnotParams(20, 81))
        for a, b in zip(seq.steps, seq.steps[1:]):
            assert a.target == b.source
        assert seq.steps[0].source == seq.start
        assert seq.steps[-1].target.is_unknot()

    def test_pinch_numbers(self):
        assert pinch_number(TorusKnotParams(4, 9)) == 2
        assert pinch_number(TorusKnotParams(20, 81)) == 10
        assert pinch_number(TorusKnotParams(0, 1)) == 0

    def test_deterministic(self):
        a = pinch_sequence(TorusKnotParams(16, 81))
        b = pinch_sequence(TorusKnotParams(16, 81))
        assert a == b

    @given(coprime_pairs)
    @settings(max_examples=100)
    def test_within_cap(self, pq):
        k = TorusKnotParams(*pq)
        assert pinch_sequence(k).pinch_number <= iteration_cap(k)


class TestSweep:
    def test_small_range_exhaustive(self):
        checked, violations = sweep_termination(200)
        assert violations == []
        assert checked == sum(
            1 for p in range(2, 201) for q in range(p + 1, 201) if gcd(p, q) == 1
        )

    def test_matches_direct_sequences(self):
        rng = random.Random(777)
        checked, violations = sweep_termination(300)
        assert violations == []
        for _ in range(60):
            p = rng.randint(2, 300)
            q = rng.randint(2, 300)
            if gcd(p, q) != 1 or p == q:
                continue
            n = pinch_number(TorusKnotParams(p, q))
            assert n <= iteration_cap(TorusKnotParams(p, q))
            assert n == pinch_number(TorusKnotParams(q, p))

    def test_trivial_limits(self):
        assert sweep_termination(1) == (0, [])

    def test_refuses_table_over_bound(self, monkeypatch):
        # two bytes per (p, q) cell: 23169 is the largest limit within 1 GiB
        assert 2 * 23170**2 <= SWEEP_MAX_BYTES < 2 * 23171**2
        # a 2 TB table, refused before anything is allocated
        with pytest.raises(ValueError, match="limit 1000000 "):
            sweep_termination(10**6)
        monkeypatch.setattr(pinch, "SWEEP_MAX_BYTES", 2 * 11 * 11)
        assert sweep_termination(10)[1] == []
        with pytest.raises(ValueError, match="limit 11 "):
            sweep_termination(11)
