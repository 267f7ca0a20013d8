"""A container field given a value of the wrong kind is refused.

Each class with a tuple or mapping field reads it once, where it copies it;
a value that cannot be read as that container is refused there with a
``DomainError`` whose code names the field and whose payload names the type
given, not with a bare ``TypeError``, ``ValueError`` or ``AttributeError``.
Every check before that read keeps its place, so an earlier refusal keeps
its code.
"""

from fractions import Fraction

import pytest

from parhiggs.exact_core import DomainError
from parhiggs.orbifold import LocalChart, VLineBundle
from parhiggs.parbun import ParabolicBundle, ParabolicLineBundle, trivial_flag
from parhiggs.surface import MarkedPoint, MarkedSurface

REFUSED = [
    (MarkedSurface, (1, 5), {"error": "points_not_sequence", "type": "int"}),
    (MarkedSurface, (1, None), {"error": "points_not_sequence",
                                "type": "NoneType"}),
    (LocalChart, (2, 5), {"error": "exponents_not_sequence", "type": "int"}),
    (LocalChart, (2, object()), {"error": "exponents_not_sequence",
                                 "type": "object"}),
    (ParabolicBundle, (2, 0, "junk"), {"error": "flag_at_not_mapping",
                                       "type": "str"}),
    (ParabolicBundle, (2, 0, 5), {"error": "flag_at_not_mapping",
                                  "type": "int"}),
    (ParabolicLineBundle, (0, 5), {"error": "weight_at_not_mapping",
                                   "type": "int"}),
    (ParabolicLineBundle, (0, [("x1", Fraction(1, 2))]),
     {"error": "weight_at_not_mapping", "type": "list"}),
    (VLineBundle, (0, 5), {"error": "isotropy_not_mapping", "type": "int"}),
    (VLineBundle, (0, "x1"), {"error": "isotropy_not_mapping", "type": "str"}),
]


@pytest.mark.parametrize("cls,args,payload", REFUSED,
                         ids=[f"{c.__name__}-{a[-1]!r}" for c, a, _ in REFUSED])
def test_a_container_of_the_wrong_kind_is_refused(cls, args, payload):
    with pytest.raises(DomainError) as e:
        cls(*args)
    assert e.value.payload() == payload


# an earlier field's refusal comes first
EARLIER = [
    (MarkedSurface, (-1, 5), "bad_genus"),
    (LocalChart, (0, 5), "bad_chart_order"),
    (ParabolicBundle, (-1, 0, "junk"), "bad_rank"),
    (ParabolicBundle, (2, 0.5, "junk"), "bad_degree"),
    (ParabolicLineBundle, (True, 5), "bad_degree"),
]


@pytest.mark.parametrize("cls,args,code", EARLIER,
                         ids=[f"{c.__name__}-{code}" for c, _, code in EARLIER])
def test_earlier_refusals_keep_their_code(cls, args, code):
    with pytest.raises(DomainError) as e:
        cls(*args)
    assert e.value.code == code


def test_every_container_kind_read_today_is_still_read():
    point = MarkedPoint("x1")
    assert MarkedSurface(1, [point]) == MarkedSurface(1, (p for p in (point,)))
    assert LocalChart(2, iter([0, 1])).exponents == (0, 1)
    flag = trivial_flag(2)
    assert ParabolicBundle(2, 0, [("x1", flag)]) == \
        ParabolicBundle(2, 0, {"x1": flag})
    assert VLineBundle(0, {"x1": 1}).isotropy == {"x1": 1}
    assert ParabolicLineBundle(0, {"x1": "1/2"}).weight_at == \
        {"x1": Fraction(1, 2)}
