"""Refusal table of the enumerated invariants: InvariantTuple and Z2Character.

Each row is one direct construction and what it must give: acceptance or
a ``DomainError`` with its code and full payload.  The rows pin which rule
wins when an input breaks several (a missing and a forbidden field: the
first field in declaration order), and how odd values read as bits.  Both
classes share one bit rule (``exact_core.exact_bits``): a bit is exactly
the int 0 or 1, so ``True``, ``1.0``, an unhashable entry and a character
of a string are not; both keep their vectors as tuples, and refuse a
vector that is not a sequence with a code naming it.  An invariant tuple's
degree and root index are exact ints >= 0.
"""

from fractions import Fraction

import pytest

from parhiggs.components import InvariantTuple
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import Z2Character

OK = None


def _missing(kind, field):
    return ("invariant_field_missing", {"kind": kind, "field": field})


def _forbidden(kind, field):
    return ("invariant_field_forbidden", {"kind": kind, "field": field})


def _bits(kind):
    return ("invariant_bits_not_binary", {"kind": kind})


def _not_sequence(field, type_name):
    return (f"{field}_not_sequence", {"type": type_name})


TUPLE_ROWS = [
    # accepted
    (("w1_w2",), dict(w1=(0, 1), w2=(1,)), OK),
    (("w1_w2",), dict(w1=(), w2=()), OK),
    (("parabolic_degree",), dict(parabolic=(1, 0), degree=0), OK),
    (("square_root",), dict(root_index=0), OK),
    (("w1_w2",), dict(w1=(True, False), w2=(1.0,)), _bits("w1_w2")),
    (("w1_w2",), dict(w1=[0, 1], w2=(0,)), OK),
    # unknown kind, hashable or not
    (("w1",), dict(w1=(0,), w2=(0,)), ("unknown_invariant_kind", {"kind": "w1"})),
    ((None,), {}, ("unknown_invariant_kind", {"kind": None})),
    ((["w1_w2"],), dict(w1=(0,), w2=(0,)),
     ("unknown_invariant_kind", {"kind": ["w1_w2"]})),
    # missing and forbidden fields: the first offending field is reported
    (("w1_w2",), dict(w1=(0, 1)), _missing("w1_w2", "w2")),
    (("w1_w2",), dict(w2=(0,)), _missing("w1_w2", "w1")),
    (("w1_w2",), {}, _missing("w1_w2", "w1")),
    (("parabolic_degree",), dict(parabolic=(1,)),
     _missing("parabolic_degree", "degree")),
    (("square_root",), {}, _missing("square_root", "root_index")),
    (("square_root",), dict(root_index=0, degree=1),
     _forbidden("square_root", "degree")),
    (("w1_w2",), dict(w1=(0,), w2=(0,), root_index=3),
     _forbidden("w1_w2", "root_index")),
    (("square_root",), dict(w1=(0,)), _forbidden("square_root", "w1")),
    (("w1_w2",), dict(w1=(0,), degree=1), _missing("w1_w2", "w2")),
    (("parabolic_degree",), dict(w1=(0,), parabolic=(1,)),
     _forbidden("parabolic_degree", "w1")),
    (("parabolic_degree",), dict(degree=1, root_index=0),
     _missing("parabolic_degree", "parabolic")),
    (("square_root",), dict(parabolic=(1,), degree=-1),
     _forbidden("square_root", "parabolic")),
    # the field shape is checked before the bits
    (("w1_w2",), dict(w1=(2,)), _missing("w1_w2", "w2")),
    # bits
    (("w1_w2",), dict(w1=(0, 2), w2=(0,)), _bits("w1_w2")),
    (("w1_w2",), dict(w1=(0,), w2=(0, -1)), _bits("w1_w2")),
    (("parabolic_degree",), dict(parabolic=(2,), degree=0),
     _bits("parabolic_degree")),
    (("w1_w2",), dict(w1=(0.5,), w2=()), _bits("w1_w2")),
    (("w1_w2",), dict(w1=([0], 1), w2=(0,)), _bits("w1_w2")),
    (("w1_w2",), dict(w1=(0,), w2=({},)), _bits("w1_w2")),
    (("w1_w2",), dict(w1="01", w2=(0,)), _bits("w1_w2")),
    (("w1_w2",), dict(w1=(None,), w2=(0,)), _bits("w1_w2")),
    (("w1_w2",), dict(w1=[1, 0], w2=[True]), _bits("w1_w2")),
    # the bits are checked before the degree
    (("parabolic_degree",), dict(parabolic=(2,), degree=-1),
     _bits("parabolic_degree")),
    # degree and root index
    (("parabolic_degree",), dict(parabolic=(1,), degree=-1),
     ("invariant_degree_negative", {"degree": -1})),
    (("parabolic_degree",), dict(parabolic=(), degree=-7),
     ("invariant_degree_negative", {"degree": -7})),
    (("square_root",), dict(root_index=-1),
     ("invariant_root_index_negative", {"root_index": -1})),
    # a degree or a root index that is not an exact int
    (("parabolic_degree",), dict(parabolic=(1,), degree=1.5),
     ("invariant_degree_negative", {"degree": 1.5})),
    (("parabolic_degree",), dict(parabolic=(1,), degree=True),
     ("invariant_degree_negative", {"degree": True})),
    (("parabolic_degree",), dict(parabolic=(1,), degree=Fraction(2)),
     ("invariant_degree_negative", {"degree": Fraction(2)})),
    (("square_root",), dict(root_index=1.5),
     ("invariant_root_index_negative", {"root_index": 1.5})),
    (("square_root",), dict(root_index=True),
     ("invariant_root_index_negative", {"root_index": True})),
    (("square_root",), dict(root_index=Fraction(2)),
     ("invariant_root_index_negative", {"root_index": Fraction(2)})),
    # not a vector of bits at all (the vector is named), or a string degree
    (("w1_w2",), dict(w1=5, w2=(0,)), _not_sequence("w1", "int")),
    (("w1_w2",), dict(w1=(0,), w2=object()), _not_sequence("w2", "object")),
    (("parabolic_degree",), dict(parabolic=(1,), degree="1"),
     ("invariant_degree_negative", {"degree": "1"})),
    (("w1_w2",), dict(w1=object(), w2=(0,)), _not_sequence("w1", "object")),
    (("w1_w2",), dict(w1=(0,), w2=5), _not_sequence("w2", "int")),
    (("parabolic_degree",), dict(parabolic=5, degree=0),
     _not_sequence("parabolic", "int")),
    (("parabolic_degree",), dict(parabolic=object(), degree=0),
     _not_sequence("parabolic", "object")),
]


CHARACTER_ROWS = [
    # accepted
    (((0, 1), (1, 0, 1)), OK),
    (((), ()), OK),
    (((), (1, 1)), OK),
    (((True, 0), (1.0, 1)), ("character_value_not_bit", {})),  # not ints
    (([0, 1], [1, 1]), OK),
    # values
    (((2,), ()), ("character_value_not_bit", {})),
    (((0,), (2,)), ("character_value_not_bit", {})),
    (((0,), (-1, 1)), ("character_value_not_bit", {})),
    (((0.5,), ()), ("character_value_not_bit", {})),
    ((([0],), ()), ("character_value_not_bit", {})),
    (((0,), ({},)), ("character_value_not_bit", {})),
    (("01", ""), ("character_value_not_bit", {})),
    # the values are checked before the parity
    (((2,), (1,)), ("character_value_not_bit", {})),
    # sigma parity
    (((0, 1), (1, 0, 0)), ("sigma_parity_violated", {"sigma": [1, 0, 0]})),
    (((), (1,)), ("sigma_parity_violated", {"sigma": [1]})),
    (((), (True, 1, 1.0)), ("character_value_not_bit", {})),
    # a list and a tuple together are read alike
    (([0], (1, 1)), OK),
    (((0,), [1, 1]), OK),
    # not a sequence: the vector is named
    ((5, ()), ("ab_not_sequence", {"type": "int"})),
    (((0,), None), ("sigma_not_sequence", {"type": "NoneType"})),
    (("01", ()), ("character_value_not_bit", {})),
    # only the ints 0 and 1 are bits: not a bool or a float
    (((True, 0), (1, 1)), ("character_value_not_bit", {})),
    (((1, 0), (1.0, 1)), ("character_value_not_bit", {})),
    (((0.0,), ()), ("character_value_not_bit", {})),
    (((), (False, 0)), ("character_value_not_bit", {})),
    (((), (1, 1, 1)), ("sigma_parity_violated", {"sigma": [1, 1, 1]})),
    (((), [1]), ("sigma_parity_violated", {"sigma": [1]})),
    ((None, 5), ("ab_not_sequence", {"type": "NoneType"})),
]


def _check(build, want):
    if want is OK:
        build()
    else:
        code, payload = want
        with pytest.raises(DomainError) as e:
            build()
        assert e.value.code == code
        assert e.value.info == payload
        assert e.value.payload() == {"error": code, **payload}


@pytest.mark.parametrize("args, kwargs, want", TUPLE_ROWS)
def test_invariant_tuple_refusals(args, kwargs, want):
    _check(lambda: InvariantTuple(*args, **kwargs), want)


@pytest.mark.parametrize("ab, sigma, want",
                         [(ab, sigma, want) for (ab, sigma), want
                          in CHARACTER_ROWS])
def test_z2_character_refusals(ab, sigma, want):
    _check(lambda: Z2Character(ab, sigma), want)


@pytest.mark.parametrize("kwargs, twin", [
    (dict(w1=[1, 0], w2=[1]), dict(w1=(1, 0), w2=(1,))),
    (dict(w1=iter([1, 0]), w2=(1,)), dict(w1=(1, 0), w2=(1,))),
    (dict(w1=(), w2=[0, 1]), dict(w1=(), w2=(0, 1))),
])
def test_a_list_built_tuple_equals_and_hashes_like_its_tuple_twin(kwargs, twin):
    t, want = InvariantTuple("w1_w2", **kwargs), InvariantTuple("w1_w2", **twin)
    assert type(t.w1) is tuple and type(t.w2) is tuple
    assert t == want and hash(t) == hash(want) and repr(t) == repr(want)


@pytest.mark.parametrize("ab, sigma", [([0, 1], [1, 1]), ((0, 1), [1, 1]),
                                       (iter([0, 1]), (x for x in (1, 1)))])
def test_a_character_keeps_its_vectors_as_tuples(ab, sigma):
    c = Z2Character(ab, sigma)
    assert type(c.ab) is tuple and type(c.sigma) is tuple
    assert c == Z2Character((0, 1), (1, 1))
    assert hash(c) == hash(Z2Character((0, 1), (1, 1)))
