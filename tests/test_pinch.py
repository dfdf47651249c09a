import io
import json
import random
from contextlib import redirect_stdout
from itertools import chain, islice
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinchcalc import pinch
from pinchcalc.cli import cli_main
from pinchcalc.criteria import jvc_criterion, sign_sequence
from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import (
    SWEEP_MAX_LIMIT,
    CannotPinchUnknotError,
    InvalidKnotError,
    PinchRun,
    TorusKnotParams,
    iteration_cap,
    pinch_move,
    pinch_number,
    pinch_runs,
    pinch_sequence,
    pinch_witnesses,
    sweep_termination,
    swept_pinch_numbers,
)

coprime_pairs = st.tuples(st.integers(2, 2000), st.integers(2, 2000)).filter(
    lambda pq: gcd(*pq) == 1
)


big_pairs = st.tuples(st.integers(0, 2**256), st.integers(0, 2**256)).filter(
    lambda pq: gcd(*pq) == 1
)
# moves of the pinch_move oracle per example; longer chains are checked on
# their first ORACLE_MOVES moves and on the first move of every run
ORACLE_MOVES = 1000


def move_chain(k, limit):
    """Step oracle: up to limit moves from k, one pinch_move each."""
    steps = []
    while not k.is_unknot() and len(steps) < limit:
        steps.append(pinch_move(k))
        k = steps[-1].target
    return steps


def assert_swap_symmetric(k):
    """Swapping the coordinates keeps every run and negates its sign."""
    runs, swapped = pinch_runs(k), pinch_runs(k.swap())
    assert [(r.q, r.p) for r in runs] == [(r.p, r.q) for r in swapped]
    assert [r.count for r in runs] == [r.count for r in swapped]
    assert [-r.sign for r in runs] == [r.sign for r in swapped]


def per_run_runs(k):
    """Reference engine: the runs of k with pinch_witnesses at every run start."""
    runs = []
    while not k.is_unknot():
        t, h = pinch_witnesses(k.p, k.q)
        if k.p > 2 * t:
            sign, count = 1, (k.p - 1) // (2 * t)
        else:
            sign, count = -1, k.p // (2 * (k.p - t))
        runs.append(PinchRun(k.p, k.q, t, h, count, sign))
        k = TorusKnotParams(*run_end(runs[-1]))
    return tuple(runs)


def run_end(run):
    """The (p, q) a run's last move reaches: its start less count strides."""
    dp, dq = run.stride
    return run.p - run.count * dp, run.q - run.count * dq


def move_fields(run):
    """A run's moves as (p, q, t, h, p', q', p - 2t, q - 2h, sign), from its rows."""
    for p, q, t, h, c, d in run.rows():
        yield p, q, t, h, c, d, p - 2 * t, q - 2 * h, run.sign


def step_fields(step):
    """A PinchStep in the order of move_fields."""
    return (step.source.p, step.source.q, step.t, step.h, step.target.p,
            step.target.q, step.p_minus_2t, step.q_minus_2h, step.sign)


def run_count(k):
    """Run engine oracle: the pinch number as the sum of the run counts."""
    return sum(run.count for run in pinch_runs(k))


def wide_pairs(bits, count, seed):
    """count seeded coprime pairs whose coordinates both have the given width."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        p, q = (rng.getrandbits(bits - 1) | 1 << (bits - 1) for _ in range(2))
        if gcd(p, q) == 1:
            pairs.append((p, q))
    return pairs


def count_witness_calls(monkeypatch):
    """Wrap pinch.pinch_witnesses; the returned list collects each call's (p, q)."""
    calls = []
    witnesses = pinch.pinch_witnesses

    def counted(p, q):
        calls.append((p, q))
        return witnesses(p, q)

    monkeypatch.setattr(pinch, "pinch_witnesses", counted)
    return calls


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
        assert k.canonical() == TorusKnotParams(4, 9).canonical()
        assert k.canonical() != TorusKnotParams(2, 5).canonical()


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
        assert seq.knots() == [(8, 25), (6, 19), (4, 13), (2, 7), (0, 1)]

    def test_12_25_chain(self):
        seq = pinch_sequence(TorusKnotParams(12, 25))
        assert seq.knots() == [(12, 25), (10, 21), (8, 17), (6, 13), (4, 9), (2, 5), (0, 1)]

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

    @given(big_pairs)
    @example((16, 21))
    @example((2**256 - 1, 2**256))
    def test_counts_and_signs_match_the_step_chain(self, pq):
        k = TorusKnotParams(*pq)
        seq = pinch_sequence(k)
        oracle = move_chain(k, ORACLE_MOVES)
        if seq.pinch_number <= ORACLE_MOVES:
            # knots() expands every move, so only chains the oracle covers
            assert seq.knots() == [(k.p, k.q)] + [
                (s.target.p, s.target.q) for s in oracle]
            signs = tuple(s.sign for s in oracle)
            assert tuple(run.sign for run in seq.runs for _ in run.rows()) == signs
            assert seq.negative_count == signs.count(-1)
            assert seq.equals_pinch_minus_one == (signs.count(-1) == 1)
        if k.p > 1 and k.q > 1 and k.p % 2 == 0 and k.q % 2 == 1:
            assert sign_sequence(k) == jvc_criterion(k) == seq

    @given(coprime_pairs)
    @settings(max_examples=100)
    def test_within_cap(self, pq):
        k = TorusKnotParams(*pq)
        assert pinch_sequence(k).pinch_number <= iteration_cap(k)


class TestPinchRuns:
    def test_examples(self):
        k = TorusKnotParams(4, 9)
        assert pinch_runs(k) == (PinchRun(4, 9, 3, 7, 2, -1),)
        assert pinch_runs(k.swap()) == (PinchRun(9, 4, 2, 1, 2, 1),)
        assert pinch_runs(TorusKnotParams(1, 0)) == ()
        # (16,21) -> (10,13) -> (4,5) keeps (3, 4); (4,5) -> (2,3) -> (0,1)
        # keeps the complement (1, 1)
        a = TorusKnotParams(16, 21)
        assert pinch_runs(a) == (
            PinchRun(16, 21, 3, 4, 2, 1), PinchRun(4, 5, 3, 4, 2, -1))
        assert [(s.t, s.h) for s in pinch_sequence(a).steps] == [
            (3, 4), (3, 4), (3, 4), (1, 2),
        ]

    @given(big_pairs)
    @example((2**256 - 1, 2**256))
    def test_runs_expand_to_the_step_chain(self, pq):
        k = TorusKnotParams(*pq)
        runs = pinch_runs(k)
        oracle = move_chain(k, ORACLE_MOVES)
        expanded = chain.from_iterable(move_fields(run) for run in runs)
        assert list(islice(expanded, ORACLE_MOVES)) == list(map(step_fields, oracle))
        assert all(next(move_fields(run)) == step_fields(
            pinch_move(TorusKnotParams(run.p, run.q))) for run in runs)
        # runs join end to start
        assert [(run.p, run.q) for run in runs[1:]] == list(map(run_end, runs[:-1]))
        n = pinch_number(k)
        assert n == sum(run.count for run in runs)
        assert min(n, ORACLE_MOVES) == len(oracle)
        if n <= ORACLE_MOVES:
            assert pinch_sequence(k).steps == tuple(oracle)
        assert len(runs) <= iteration_cap(k)

    @given(big_pairs)
    @example((0, 1))
    @example((1, 5))
    @example((16, 21))
    @example((2**256 - 1, 2**256))
    def test_rows_and_pinch_seq_match_the_step_chain(self, pq):
        k = TorusKnotParams(*pq)
        oracle = move_chain(k, ORACLE_MOVES)
        rows = chain.from_iterable(
            ((*row, run.sign) for row in run.rows()) for run in pinch_runs(k))
        assert list(islice(rows, ORACLE_MOVES)) == [
            (s.source.p, s.source.q, s.t, s.h, s.target.p, s.target.q, s.sign)
            for s in oracle
        ]
        if pinch_number(k) <= ORACLE_MOVES:
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main(["pinch-seq", *map(str, pq), "--json"]) == 0
            steps = [
                {"from": [s.source.p, s.source.q], "to": [s.target.p, s.target.q],
                 "t": s.t, "h": s.h, "sign": "+" if s.sign > 0 else "-"}
                for s in oracle
            ]
            # every byte: the steps are written as JSON text, not by json.dumps
            doc = {"schema_version": "1", "command": "pinch-seq",
                   "inputs": {"p": k.p, "q": k.q},
                   "results": {"start": [k.p, k.q], "steps": steps,
                               "pinch_number": len(steps)},
                   "status": "ok"}
            assert out.getvalue() == json.dumps(doc, separators=(",", ":")) + "\n"

    @given(big_pairs)
    @example((2**256 - 1, 2**256))
    def test_carried_witnesses_match_the_run_start_oracle(self, pq):
        for run in pinch_runs(TorusKnotParams(*pq)):
            assert (run.t, run.h) == pinch_witnesses(run.p, run.q)

    @pytest.mark.parametrize("bits", [1024, 2048, 4096])
    def test_wide_runs_match_the_per_run_engine(self, bits):
        for pq in wide_pairs(bits, 5, seed=bits):
            k = TorusKnotParams(*pq)
            assert pinch_runs(k) == per_run_runs(k)

    @pytest.mark.parametrize("pq", [wide_pairs(4096, 1, seed=1)[0], (16, 21)],
                             ids=["4096-bit", "T(16,21)"])
    def test_one_inverse_per_chain(self, monkeypatch, pq):
        calls = count_witness_calls(monkeypatch)
        assert len(pinch_runs(TorusKnotParams(*pq))) >= 2
        assert calls == [pq]

    def test_builds_no_knot_after_the_start(self, monkeypatch):
        built = []
        check = TorusKnotParams.__post_init__

        def counted(knot):
            built.append((knot.p, knot.q))
            check(knot)

        monkeypatch.setattr(TorusKnotParams, "__post_init__", counted)
        pq = wide_pairs(4096, 1, seed=1)[0]
        assert len(pinch_runs(TorusKnotParams(*pq))) >= 2
        # the one knot is the caller's start
        assert built == [pq]

    @pytest.mark.parametrize("pq", [(1, 0), (0, 1), (7, 1), (1, 2**4096)])
    def test_no_inverse_on_an_unknot(self, monkeypatch, pq):
        calls = count_witness_calls(monkeypatch)
        assert pinch_runs(TorusKnotParams(*pq)) == ()
        assert calls == []

    def test_rows_check_the_run_once(self):
        # T(4, 9) -> T(2, 7) is coprime, but (1, 1) are not its witnesses
        with pytest.raises(RuntimeError, match="do not start a run of 1 moves"):
            next(PinchRun(4, 9, 1, 1, 1, 1).rows())
        # the witnesses of T(3, 5), but its one positive move reaches T(1, 1)
        with pytest.raises(RuntimeError, match="do not start a run of 2 moves"):
            next(PinchRun(3, 5, 1, 2, 2, 1).rows())

    @given(big_pairs)
    def test_swap_symmetry(self, pq):
        assert_swap_symmetric(TorusKnotParams(*pq))

    def test_swap_symmetry_bulk(self):
        rng = random.Random(64)
        pairs = 0
        while pairs < 3000:
            p, q = rng.getrandbits(64), rng.getrandbits(64)
            if gcd(p, q) == 1:
                assert_swap_symmetric(TorusKnotParams(p, q))
                pairs += 1

    @pytest.mark.parametrize("family", ["K", "J"])
    def test_family_member_is_one_run(self, family):
        n = 10**12
        k = family_knot(FamilyId(family, n))
        (run,) = pinch_runs(k)
        assert (run.p, run.q, run.count, run.sign) == (k.p, k.q, 2 * n, -1)
        assert run_end(run) == (0, 1)
        assert pinch_number(k) == 2 * n


class TestPinchNumber:
    @given(big_pairs)
    @example((0, 1))
    @example((1, 0))
    @example((1, 2**256))
    @example((2**256, 1))
    @example((4 * 10**12, (2 * 10**12 + 1) ** 2))  # K_n
    @example((4 * 10**12, (2 * 10**12 - 1) ** 2))  # J_n
    @example((10**18, 10**18 + 1))
    @example((2**256 - 1, 2**256))
    def test_euclid_path_matches_the_run_engine(self, pq):
        k = TorusKnotParams(*pq)
        assert pinch_number(k) == pinch_number(k.swap()) == run_count(k)

    @given(coprime_pairs)
    @example((1, 7))
    @example((7, 1))
    @example((2, 3))
    def test_euclid_path_matches_the_step_oracle(self, pq):
        k = TorusKnotParams(*pq)
        assert pinch_number(k) == len(move_chain(k, iteration_cap(k)))

    @pytest.mark.parametrize("pq", [wide_pairs(4096, 1, seed=1)[0], (16, 21), (0, 1)],
                             ids=["4096-bit", "T(16,21)", "unknot"])
    def test_no_inverse(self, monkeypatch, pq):
        k = TorusKnotParams(*pq)
        calls = count_witness_calls(monkeypatch)
        pinch_number(k)
        assert calls == []


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

    def test_walk_matches_pinch_number(self):
        swept = [(p, q) for p, q, n in swept_pinch_numbers(150)
                 if n == pinch_number(TorusKnotParams(p, q))]
        assert sorted(swept) == [
            (p, q) for p in range(2, 151) for q in range(p + 1, 151)
            if gcd(p, q) == 1
        ]

    @pytest.mark.parametrize("limit", [1999, 2000])
    def test_last_column_matches_the_run_engine(self, limit):
        column = [(p, n) for p, q, n in swept_pinch_numbers(limit) if q == limit]
        assert sorted(p for p, _ in column) == [
            p for p in range(2, limit) if gcd(p, limit) == 1]
        assert all(n == run_count(TorusKnotParams(p, limit)) for p, n in column)

    def test_negative_limits_sweep_nothing(self):
        assert sweep_termination(-1) == sweep_termination(-10**9) == (0, [])

    @given(st.integers(0, 400))
    @settings(max_examples=40)
    def test_checked_counts_every_coprime_pair(self, limit):
        assert sweep_termination(limit)[0] == sum(
            1 for q in range(limit + 1) for p in range(2, q) if gcd(p, q) == 1
        )

    def test_trivial_limits(self):
        assert sweep_termination(1) == (0, [])

    def test_refuses_table_over_bound(self, monkeypatch):
        # the largest limit swept, about 1.6e8 pairs of work
        assert SWEEP_MAX_LIMIT == 23169
        # about 3e11 pairs, refused before the walk starts
        with pytest.raises(ValueError, match="limit 1000000 "):
            sweep_termination(10**6)
        monkeypatch.setattr(pinch, "SWEEP_MAX_LIMIT", 10)
        assert sweep_termination(10)[1] == []
        with pytest.raises(ValueError, match="limit 11 "):
            sweep_termination(11)
