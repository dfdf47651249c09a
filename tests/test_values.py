"""Value semantics of the nine record classes, which are written by hand.

Each keeps what a frozen dataclass gave it: construction by position or
keyword, equality and hashing by field, a Name(field=value, ...) repr and
fields that refuse assignment.  The Value classes also equal nothing but
their own class.  The refusals of bad input are in tests/test_refusals.py.
"""

import copy
import pickle
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pinchcalc.arith import EvenCF, ReducedFraction, Value, ext_gcd
from pinchcalc.criteria import CounterexampleReport, counterexample_report
from pinchcalc.families import FamilyId, family_knot
from pinchcalc.pinch import (
    PinchSequence, PinchStep, TorusKnotParams, pinch_move, pinch_sequence,
)
from pinchcalc.tangles import MatSL2, TwoBridgeKnot, two_bridge_normalize

# each class with its fields in constructor order
FIELDS = {
    TorusKnotParams: ("p", "q"),
    PinchStep: ("source", "target", "t", "h", "p_minus_2t", "q_minus_2h", "sign"),
    PinchSequence: ("start", "runs"),
    ReducedFraction: ("num", "den"),
    EvenCF: ("coeffs",),
    FamilyId: ("family", "n"),
    CounterexampleReport: ("family", "n", "knot", "pinch_number", "band_count",
                           "slice_fraction", "slice_cf", "slice_recognized",
                           "jvc_negative_count", "jvc_equals_pinch_minus_one"),
    MatSL2: ("a", "b", "c", "d"),
    TwoBridgeKnot: ("t1", "t2", "normalized"),
}
# the records that validate nothing, and that no caller compares with a
# plain tuple, are named tuples; the others validate their fields on Value
NAMED_TUPLES = {PinchStep, PinchSequence, CounterexampleReport, TwoBridgeKnot}

small = st.integers(-300, 300)
knots = (st.tuples(st.integers(0, 300), st.integers(0, 300))
         .filter(lambda pq: gcd(*pq) == 1).map(lambda pq: TorusKnotParams(*pq)))
fractions = (st.tuples(small, small).filter(lambda t: t != (0, 0))
             .map(lambda t: ReducedFraction(*t)))
members = st.builds(FamilyId, st.sampled_from("KJ"), st.integers(1, 40))


def unimodular(ac):
    """The matrix [[a, b], [c, d]] with ad - bc = 1, from Bezout's x and y."""
    a, c = ac
    _, x, y = ext_gcd(a, c)
    return MatSL2(a, -y, c, x)


BUILD = {
    TorusKnotParams: knots,
    PinchStep: knots.filter(lambda k: not k.is_unknot()).map(pinch_move),
    PinchSequence: knots.map(pinch_sequence),
    ReducedFraction: fractions,
    EvenCF: st.lists(st.integers(-50, 50).filter(bool).map(lambda a: 2 * a),
                     min_size=1, max_size=5).map(EvenCF),
    FamilyId: members,
    CounterexampleReport: members.filter(lambda f: not f.is_trivial)
    .map(lambda fid: counterexample_report(fid, pinch_sequence(family_knot(fid)))),
    MatSL2: st.tuples(small, small).filter(lambda ac: gcd(*ac) == 1).map(unimodular),
    TwoBridgeKnot: st.tuples(fractions, fractions).filter(lambda t: t[0] != t[1])
    .map(lambda t: two_bridge_normalize(*t)),
}
values = st.sampled_from(list(BUILD)).flatmap(BUILD.__getitem__)


def fields(value):
    return {f: getattr(value, f) for f in FIELDS[type(value)]}


def test_the_nine_classes():
    assert set(FIELDS) == set(BUILD)
    assert {cls for cls in FIELDS if not issubclass(cls, Value)} == NAMED_TUPLES
    assert set(Value.__subclasses__()) == set(FIELDS) - NAMED_TUPLES
    assert all(issubclass(cls, tuple) for cls in NAMED_TUPLES)


@given(values)
def test_equal_fields_give_equal_objects(value):
    cls, named = type(value), fields(value)
    for twin in (cls(**named), cls(*named.values()), copy.copy(value),
                 pickle.loads(pickle.dumps(value))):
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)


@given(values, values)
@example(TorusKnotParams(2, 3), ReducedFraction(2, 3))
@example(EvenCF((2,)), EvenCF((2,)))
def test_a_value_equals_only_its_own_class(a, b):
    for value in (a, b):
        if isinstance(value, Value):
            # not even the tuple of its fields, or a lone field
            named = tuple(fields(value).values())
            assert value != named and value != named[0]
    if type(a) is not type(b) and (isinstance(a, Value) or isinstance(b, Value)):
        assert a != b and b != a


@given(values)
def test_fields_refuse_assignment(value):
    before = fields(value)
    for name, field in before.items():
        with pytest.raises(AttributeError):
            setattr(value, name, field)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert fields(value) == before


@given(values)
def test_repr_has_the_dataclass_form(value):
    shown = ", ".join(f"{name}={field!r}" for name, field in fields(value).items())
    assert repr(value) == f"{type(value).__name__}({shown})"

