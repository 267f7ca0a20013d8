"""A container field given a value of the wrong kind is refused.

Each class with a tuple or mapping field reads it once, where it copies it;
a value that cannot be read as that container is refused there with a
``DomainError`` whose code names the field and whose payload names the type
given, not with a bare ``TypeError``, ``ValueError`` or ``AttributeError``.
Every check before that read keeps its place, so an earlier refusal keeps
its code.  So is an item read from a container that is not what the
function reads it as.
"""

from fractions import Fraction

import pytest

from parhiggs.components import emit_tables, tables_markdown
from parhiggs.dimension import dim_strongly_parabolic_gl
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import LocalChart, VLineBundle, laurent_matrix
from parhiggs.parbun import ParabolicBundle, ParabolicLineBundle, trivial_flag
from parhiggs.stability import DecomposableHiggsModel, sp_filtration_degree
from parhiggs.surface import MarkedPoint, MarkedSurface, standard_surface

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


_LINE = ParabolicLineBundle(0)
_MODEL = DecomposableHiggsModel(standard_surface(2, 1), (_LINE, _LINE))

ITEMS = [
    (lambda: dim_strongly_parabolic_gl(2, 2, 1, [5]),
     {"error": "bad_multiplicities", "type": "int"}),
    (lambda: sp_filtration_degree(_MODEL, [5, [0, 1]], [0, 1], 0),
     {"error": "bad_index_step", "type": "int"}),
    (lambda: sp_filtration_degree(_MODEL, [["a"], [0, 1]], [0, 1], 0),
     {"error": "bad_index_step", "n": 2}),
    (lambda: sp_filtration_degree(_MODEL, [[0, 1.0], [0, 1]], [0, 1], 0),
     {"error": "bad_index_step", "n": 2}),
    (lambda: tables_markdown([5], 2, 1),
     {"error": "table_not_component_table", "index": 0, "type": "int"}),
    (lambda: tables_markdown([*emit_tables(2, 1), "t"], 2, 1),
     {"error": "table_not_component_table", "index": 3, "type": "str"}),
    (lambda: laurent_matrix(1, {5: []}, (0, 1), "dw/w"),
     {"error": "entry_out_of_range", "entry": 5, "n": 1}),
    (lambda: laurent_matrix(1, {("a", 0): []}, (0, 1), "dw/w"),
     {"error": "entry_out_of_range", "entry": ["a", 0], "n": 1}),
    (lambda: laurent_matrix(2, {(True, 0): []}, (0, 1), "dw/w"),
     {"error": "entry_out_of_range", "entry": [True, 0], "n": 2}),
    (lambda: laurent_matrix(1, {(0, 0, 0): []}, (0, 1), "dw/w"),
     {"error": "entry_out_of_range", "entry": [0, 0, 0], "n": 1}),
]


@pytest.mark.parametrize("call,payload", ITEMS,
                         ids=[f"{p['error']}-{i}" for i, (_, p) in enumerate(ITEMS)])
def test_an_item_of_the_wrong_kind_is_refused(call, payload):
    with pytest.raises(DomainError) as e:
        call()
    assert e.value.payload() == payload
