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
from pinchcalc.cli import _json_value, cli_main
from pinchcalc.criteria import jvc_criterion, sign_sequence
from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import (
    SWEEP_MAX_LIMIT,
    PinchRun,
    TorusKnotParams,
    iteration_cap,
    pinch_move,
    pinch_number,
    pinch_runs,
    pinch_sequence,
    sweep_termination,
)

from oracles import (count_knot_builds, count_witness_calls, move_chain,
                     per_run_runs, run_end)

coprime_pairs = st.tuples(st.integers(2, 2000), st.integers(2, 2000)).filter(
    lambda pq: gcd(*pq) == 1
)


big_pairs = st.tuples(st.integers(0, 2**256), st.integers(0, 2**256)).filter(
    lambda pq: gcd(*pq) == 1
)
# moves of the pinch_move oracle per example; longer chains are checked on
# their first ORACLE_MOVES moves and on the first move of every run
ORACLE_MOVES = 1000
# the pairs jvc takes, p even and q odd, both > 1, whose chains the oracle
# covers
jvc_pairs = st.tuples(
    st.integers(1, 2**128).map(lambda a: 2 * a),
    st.integers(1, 2**128).map(lambda b: 2 * b + 1),
).filter(lambda pq: gcd(*pq) == 1
         and pinch_number(TorusKnotParams(*pq)) <= ORACLE_MOVES)


def assert_swap_symmetric(k):
    """Swapping the coordinates keeps every run and negates its sign."""
    runs, swapped = pinch_runs(k), pinch_runs(k.swap())
    assert [(r.q, r.p) for r in runs] == [(r.p, r.q) for r in swapped]
    assert [r.count for r in runs] == [r.count for r in swapped]
    assert [-r.sign for r in runs] == [r.sign for r in swapped]


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


def record_pinch_numbers(monkeypatch, engine):
    """Patch pinch.pinch_number to engine; the returned list collects each
    call's (p, q)."""
    calls = []

    def recorded(k):
        calls.append((k.p, k.q))
        return engine(k)

    monkeypatch.setattr(pinch, "pinch_number", recorded)
    return calls


class TestTorusKnotParams:
    def test_unknot_detection(self):
        assert TorusKnotParams(0, 1).is_unknot()
        assert TorusKnotParams(1, 0).is_unknot()
        assert TorusKnotParams(1, 1).is_unknot()
        assert TorusKnotParams(4, 1).is_unknot()
        assert not TorusKnotParams(2, 3).is_unknot()

    def test_coordinates_are_ints(self):
        # index() makes a bool the int it stands for
        k = TorusKnotParams(True, 3)
        assert type(k.p) is int and (k.p, k.q) == (1, 3)
        assert json.dumps(k, separators=(",", ":"), default=_json_value) == "[1,3]"


class TestPinchMove:
    def test_8_25(self):
        step = pinch_move(TorusKnotParams(8, 25))
        assert step.target == TorusKnotParams(6, 19)
        assert (step.t, step.h, step.sign) == (7, 22, -1)

    def test_2_3_p_equals_2t(self):
        # the one knot with p = 2t: p > 2t fails, so the move is negative
        step = pinch_move(TorusKnotParams(2, 3))
        assert step.target == TorusKnotParams(0, 1)
        assert (step.t, step.h) == (1, 2)
        assert step.p_minus_2t == 0 and step.q_minus_2h == -1
        assert step.sign == -1

    def test_9_4_positive(self):
        step = pinch_move(TorusKnotParams(9, 4))
        assert step.target == TorusKnotParams(5, 2)
        assert (step.t, step.h, step.sign) == (2, 1, 1)

    def test_exact_at_large_n(self):
        # n = 10**6: intermediates exceed 64 bits, must stay exact
        n = 10**6
        step = pinch_move(TorusKnotParams(4 * n, (2 * n + 1) ** 2))
        assert step.target == TorusKnotParams(4 * n - 2, (4 * n - 2) * (n + 1) + 1)

    @given(coprime_pairs)
    def test_output_coprime_and_smaller(self, pq):
        p, q = pq
        step = pinch_move(TorusKnotParams(p, q))
        assert gcd(step.target.p, step.target.q) == 1
        assert step.target.p <= p - 2
        assert step.target.q <= q - 2

    @given(coprime_pairs)
    def test_raw_values_never_conflict(self, pq):
        # the two raw sign values never straddle zero, so the sign of
        # p - 2t is the sign of the move in both coordinates
        step = pinch_move(TorusKnotParams(*pq))
        assert not (step.p_minus_2t > 0 > step.q_minus_2h)
        assert not (step.p_minus_2t < 0 < step.q_minus_2h)


class TestPinchSequence:
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
        if k.p > 1 and k.q > 1 and k.p % 2 == 0 and k.q % 2 == 1:
            assert sign_sequence(k) == jvc_criterion(k) == seq


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
    @example((0, 1))
    @example((1, 5))
    @example((16, 21))
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
    # 256 bits, 975 moves: a positive run of 402 moves and a negative run of 356
    @example((0x98c518f43ff19e9ddf7a8ec8519cacd05232f2721be3ce0c7e3bcc3fdcafd5fe,
              0xb63fae5e1830cdaddb42fc0dfbab9fc454f183235ba051c5f12eea310a8545b3))
    def test_rows_and_pinch_seq_match_the_step_chain(self, pq):
        # pinch-seq writes both forms from the runs, in one loop per run
        # sign, not from the rows, which test_runs_expand_to_the_step_chain
        # holds to the step chain
        k = TorusKnotParams(*pq)
        oracle = move_chain(k, ORACLE_MOVES)
        if pinch_number(k) <= ORACLE_MOVES:
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main(["pinch-seq", *map(str, pq), "--json"]) == 0
                assert cli_main(["pinch-seq", *map(str, pq)]) == 0
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
            lines = [f"{str(s.source):>10} -> {str(s.target):<10} t={s.t:<6} "
                     f"h={s.h:<6} sign={step['sign']}" for s, step in zip(oracle, steps)]
            assert out.getvalue().splitlines() == [
                json.dumps(doc, separators=(",", ":")), *lines,
                f"pinch number: {len(steps)}"]

    @given(jvc_pairs)
    @example((16, 21))
    @example((8, 9))
    @example((2, 3))
    @example((4, 9))
    def test_jvc_matches_the_step_chain(self, pq):
        oracle = move_chain(TorusKnotParams(*pq), ORACLE_MOVES)
        signs = ["+" if s.sign > 0 else "-" for s in oracle]
        negative = signs.count("-")
        doc = {"schema_version": "1", "command": "jvc",
               "inputs": {"p": pq[0], "q": pq[1]},
               "results": {"knot": list(pq), "signs": signs,
                           "negative_count": negative,
                           "equals_pinch_minus_one": negative == 1},
               "status": "ok"}
        text = (f"sign sequence: [{','.join(signs)}]\n"
                f"negative count: {negative}\n"
                "lower bound reaches pinch number - 1: "
                f"{'yes' if negative == 1 else 'no'}\n")

        def printed(*form):
            out = io.StringIO()
            with redirect_stdout(out):
                assert cli_main(["jvc", *map(str, pq), *form]) == 0
            return out.getvalue()

        # every byte: jvc writes each run's signs as one repeated chunk
        assert printed("--json") == json.dumps(doc, separators=(",", ":")) + "\n"
        assert printed() == text

    @given(big_pairs)
    @example((2**256 - 1, 2**256))
    def test_carried_witnesses_match_the_run_start_oracle(self, pq):
        k = TorusKnotParams(*pq)
        assert pinch_runs(k) == per_run_runs(k)

    @pytest.mark.parametrize("bits", [1024])
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
        built = count_knot_builds(monkeypatch)
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
    @example((4, 9))
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
    def test_matches_direct_sequences(self, monkeypatch):
        # the walk holds its N on the last column against the step oracle
        oracle = record_pinch_numbers(monkeypatch, lambda k: len(move_chain(k, 200)))
        checked, violations = sweep_termination(300)
        assert violations == []
        assert sorted(p for p, q in oracle) == [
            p for p in range(2, 300) if gcd(p, 300) == 1]
        assert {q for p, q in oracle} == {300}

    def test_walk_matches_pinch_number(self, monkeypatch):
        # the walk compares its N with pinch_number on its last column, and
        # the limits 3..150 put every pair with q <= 150 on a last column
        checked = record_pinch_numbers(monkeypatch, pinch_number)
        for limit in range(3, 151):
            sweep_termination(limit)
        assert sorted(checked) == [
            (p, q) for p in range(2, 151) for q in range(p + 1, 151)
            if gcd(p, q) == 1
        ]

    @pytest.mark.parametrize("limit", [1999, 2000])
    def test_last_column_matches_the_run_engine(self, monkeypatch, limit):
        checked = record_pinch_numbers(monkeypatch, run_count)
        sweep_termination(limit)
        assert sorted(p for p, q in checked) == [
            p for p in range(2, limit) if gcd(p, limit) == 1]
        assert {q for p, q in checked} == {limit}

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
        monkeypatch.setattr(pinch, "SWEEP_MAX_LIMIT", 10)
        assert sweep_termination(10)[1] == []
        with pytest.raises(ValueError, match="limit 11 "):
            sweep_termination(11)
