"""Every value class against a frozen dataclass twin.

``exact_core.frozen_value`` stands in for ``dataclass(frozen=True)``.  For
each value class of the package, a twin is made with
``dataclasses.make_dataclass(..., frozen=True)`` from the same fields, the
same defaults and the same ``__post_init__``, and both are built from the
same arguments.  They must agree on the constructor's signature, the repr,
``==`` and ``!=`` (within a class and across classes), the hash (or its
``TypeError`` where a field holds a dict), refused assignment and deletion,
a copy per instance of a mapping field, and the refusal codes of
``__post_init__``.  Every optional field has a class-level default that is
hashable or is the one read-only ``EMPTY_MAPPING``.
"""

import dataclasses
import importlib
import inspect
import json
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from parhiggs.cli import CommandOutput
from parhiggs.codec import from_json, to_json
from parhiggs.components import (
    CaseCount,
    ComponentCountReport,
    ComponentTable,
    CountMode,
    GroupDescriptor,
    InvariantTuple,
    S1ReductionReport,
    TableRow,
)
from parhiggs.dimension import DimReport, DimSummand, LieGroupData
from parhiggs.exact_core import (
    EMPTY_MAPPING,
    DomainError,
    FrozenFieldError,
    frozen_value,
)
from parhiggs.orbifold import (
    LaurentMatrix,
    LocalChart,
    PicVStructure,
    SquareRootFamily,
    VLineBundle,
    Z2Character,
)
from parhiggs.parbun import (
    ParabolicBundle,
    ParabolicFlag,
    ParabolicLineBundle,
    par_dual,
    trivial_flag,
)
from parhiggs.stability import (
    DecomposableHiggsModel,
    SpTripleModel,
    StabilityReport,
)
from parhiggs.surface import MarkedPoint, MarkedSurface, standard_surface
from parhiggs.vcoh import MVPieces, VCohRanks

PACKAGE = Path(importlib.import_module("parhiggs").__file__).parent
H = Fraction(1, 2)
SURF = standard_surface(2, 1)
SP2 = GroupDescriptor("Sp2nR", 1)
CASE = CaseCount("a", 1, 1)

# class -> two argument tuples giving unequal values
SAMPLES = {
    MarkedPoint: [("x1",), ("x1", 3)],
    MarkedSurface: [(1,), (2, (MarkedPoint("p"), MarkedPoint("q", 5)))],
    ParabolicFlag: [((1, 1), (0, H)), ((2,), (Fraction(1, 3),))],
    ParabolicLineBundle: [(1,), (0, {"x1": H})],
    ParabolicBundle: [(2, 1), (2, 0, {"x1": trivial_flag(2)})],
    VLineBundle: [(0,), (1, {"x1": 1, "x2": 0})],
    SquareRootFamily: [((VLineBundle(0),), 4), ((), 1)],
    Z2Character: [((0, 1), (1, 1)), ((), ())],
    PicVStructure: [(1, (2, 3)), (0, ())],
    LocalChart: [(2, (0, 1)), (3, [1, 1])],
    LaurentMatrix: [(1, ((((0, Fraction(1)),),),), (-1, 2), "dw/w"),
                    (1, (((),),), [0, 0], "dz/z")],
    DecomposableHiggsModel: [(SURF, [ParabolicLineBundle(1), ParabolicLineBundle(0)],
                              {(0, 1)}),
                             (SURF, (ParabolicLineBundle(0),))],
    SpTripleModel: [(SURF, [ParabolicLineBundle(1)], {(0, 0)}),
                    (SURF, (ParabolicLineBundle(0),), (), [(0, 0)])],
    StabilityReport: [("stable", None, H), ("unstable", (0,), Fraction(1))],
    LieGroupData: [("G", 10, 2, [1, 3], True, False),
                   ("H", 6, 1, (1,), False, False, True)],
    DimSummand: [("a", 1, 2), ("b", None, 3)],
    DimReport: [(1, 2), (None, 3, (DimSummand("b", None, 3),), 4, ("n",))],
    VCohRanks: [(1, 2, 3), (0, 0, 0)],
    MVPieces: [((1, 1, 0), (1, 1, 0), (1, 2, 1), (1, 1, 1)),
               ([0, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0])],
    GroupDescriptor: [("Sp2nR", 2), ("split", None, "SL(3,R)")],
    CountMode: [("max_union",), ("max_fixed_alpha", "even")],
    InvariantTuple: [("w1_w2", (0, 1), (1,)),
                     ("parabolic_degree", None, None, (1, 0), 0)],
    CaseCount: [("a", 1, 1), ("b", 2, 3)],
    ComponentCountReport: [(SP2, 2, 1, CountMode("max_union"), (CASE,), 1, 1, True),
                           (SP2, 2, 1, CountMode("punctured"), (), 0, 0, False,
                            "components", "no_maximal_objects", ("n",))],
    TableRow: [("a", "1", "-"), ("b", "2", "1")],
    ComponentTable: [("t", (TableRow("a", "1", "-"),)), ("t", (), ("f",))],
    S1ReductionReport: [(SP2, 2, 1, (CASE,), None, (), 1),
                        (SP2, 2, 1, (CASE,), 3, (("kd", 3),), 1, ("n",))],
    CommandOutput: [({"a": 1},), ({}, None, None, "t", "markdown")],
}

# class -> (arguments, refusal payload) for each __post_init__ rule sampled
REFUSALS = {
    MarkedPoint: [(("x", 0),
                   {"error": "bad_isotropy_order", "label": "x", "order": 0})],
    MarkedSurface: [((-1,), {"error": "bad_genus", "genus": -1}),
                    ((0, (MarkedPoint("x"), MarkedPoint("x"))),
                     {"error": "duplicate_point_labels", "labels": ["x", "x"]})],
    ParabolicFlag: [(((1,), (H, 0)), {"error": "bad_flag_shape"}),
                    (((1, 1), (H, 0)),
                     {"error": "flag_weights_not_increasing", "weights": [H, 0]})],
    ParabolicLineBundle: [((0, {"x1": 1}),
                           {"error": "weight_out_of_range", "weight": 1})],
    ParabolicBundle: [((-1, 0), {"error": "bad_rank", "rank": -1}),
                      ((3, 0, {"x1": trivial_flag(2)}),
                       {"error": "flag_rank_mismatch", "label": "x1",
                        "flag_rank": 2, "rank": 3})],
    VLineBundle: [((0, {"x1": 1.5}),
                   {"error": "bad_isotropy", "label": "x1", "residue": 1.5})],
    Z2Character: [(((0,), (1,)), {"error": "sigma_parity_violated", "sigma": [1]}),
                  (((2,), ()), {"error": "character_value_not_bit"})],
    LocalChart: [((0, (0,)), {"error": "bad_chart_order", "m": 0}),
                 ((2, (1, 0)), {"error": "exponents_not_nondecreasing",
                                "exponents": [1, 0]})],
    LaurentMatrix: [((1, (((),),), (0, 0), "dt"),
                     {"error": "bad_form_flag", "form": "dt"}),
                    ((1, ((((0, H), (0, H)),),), (0, 1), "dz/z"),
                     {"error": "terms_not_canonical", "entry": [0, 0]})],
    DecomposableHiggsModel: [((SURF, (ParabolicLineBundle(0),), {(0, 1)}),
                              {"error": "arrow_out_of_range", "arrow": [0, 1],
                               "n": 1})],
    SpTripleModel: [((SURF, (ParabolicLineBundle(0),) * 2, {(0, 1)}),
                     {"error": "asymmetric_support", "which": "beta",
                      "arrow": [0, 1]})],
    LieGroupData: [(("G", 0, 0, (), False, False),
                    {"error": "bad_lie_data", "name": "G"}),
                   (("G", 7, 1, (1,), True, False),
                    {"error": "catalog_identity_violated", "name": "G", "dim": 7,
                     "rank": 1, "exponents": (1,)})],
    DimReport: [((1, 3), {"error": "real_complex_mismatch", "complex": 1, "real": 3})],
    VCohRanks: [((0, -1, 0), {"error": "negative_rank", "ranks": [0, -1, 0]})],
    MVPieces: [(((0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),
                {"error": "bad_rank_triple", "which": "v1", "value": [0, 0]})],
    GroupDescriptor: [(("Sp2nR",), {"error": "group_needs_rank", "family": "Sp2nR"}),
                      (("SOstar2n", 3), {"error": "so_star_needs_even_rank", "n": 3})],
    CountMode: [(("max_union", "even"),
                 {"error": "mode_takes_no_parity", "variant": "max_union"})],
    InvariantTuple: [(("square_root",),
                      {"error": "invariant_field_missing", "kind": "square_root",
                       "field": "root_index"})],
    ComponentCountReport: [((SP2, 2, 1, CountMode("max_union"), (CASE,), 2, 2, True),
                            {"error": "case_totals_inconsistent", "total": 2})],
}


def _value_classes():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        mod = importlib.import_module(f"parhiggs.{path.stem}")
        found += [v for v in vars(mod).values() if isinstance(v, type)
                  and v.__module__ == mod.__name__ and "_value_fields" in v.__dict__]
    return found


def _twin(cls):
    """The frozen dataclass with the fields, defaults and __post_init__ of
    cls.  A dataclass takes no mapping as a default, so the twin of an
    ``EMPTY_MAPPING`` default is a new dict per instance."""
    specs = []
    for name, required in cls._value_fields:
        if required:
            specs.append((name, Any))
        elif cls.__dict__[name] is EMPTY_MAPPING:
            specs.append((name, Any, dataclasses.field(default_factory=dict)))
        else:
            specs.append((name, Any, dataclasses.field(default=cls.__dict__[name])))
    namespace = {}
    if hasattr(cls, "__post_init__"):
        namespace["__post_init__"] = cls.__post_init__
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True,
                                      namespace=namespace)


CLASSES = list(SAMPLES)
IDS = [cls.__name__ for cls in CLASSES]


def test_every_value_class_has_samples_and_fields_in_order():
    classes = _value_classes()
    assert len(classes) == 28
    assert set(classes) == set(SAMPLES)
    assert set(REFUSALS) <= set(SAMPLES)
    for cls in classes:
        assert [name for name, _ in cls._value_fields] == list(cls.__annotations__)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_signature_repr_equality_and_hash_match_the_twin(cls):
    twin = _twin(cls)
    params = inspect.signature(cls).parameters.values()
    twin_params = inspect.signature(twin).parameters.values()
    assert [(p.name, p.kind) for p in params] == \
        [(q.name, q.kind) for q in twin_params]
    for p, q in zip(params, twin_params):
        # the twin's marker for a default_factory prints as <factory>
        assert p.default is (EMPTY_MAPPING if repr(q.default) == "<factory>"
                             else q.default)
    first, second = SAMPLES[cls]
    ours = [cls(*first), cls(*second), cls(*first)]
    theirs = [twin(*first), twin(*second), twin(*first)]
    other = CaseCount("x", 0, 0) if cls is not CaseCount else TableRow("x", "0", "0")
    for a, ta in zip(ours, theirs):
        assert repr(a) == repr(ta)
        for b, tb in zip(ours, theirs):
            assert (a == b, a != b) == (ta == tb, ta != tb)
        assert (a == ta, a != ta, ta == a) == (False, True, False)
        values = tuple(getattr(a, name) for name, _ in cls._value_fields)
        assert (a == values, a == other) == (ta == values, ta == other) \
            == (False, False)
        try:
            want = hash(ta)
        except TypeError as err:
            with pytest.raises(TypeError, match=re.escape(str(err))):
                hash(a)
        else:
            assert hash(a) == want
    assert ours[0] == ours[2] and ours[0] != ours[1]


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_assignment_and_deletion_are_refused_as_in_the_twin(cls):
    value, twin_value = cls(*SAMPLES[cls][0]), _twin(cls)(*SAMPLES[cls][0])
    for name in [name for name, _ in cls._value_fields] + ["other"]:
        for target in (value, twin_value):
            with pytest.raises(AttributeError):
                setattr(target, name, 0)
            with pytest.raises(AttributeError):
                delattr(target, name)
        with pytest.raises(FrozenFieldError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, 0)
        with pytest.raises(FrozenFieldError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(*SAMPLES[cls][0])


# class -> a mapping for its one mapping field, with its required arguments
# from SAMPLES[cls][0]
MAPPINGS = {ParabolicLineBundle: {"x1": H}, ParabolicBundle: {"x1": trivial_flag(2)},
            VLineBundle: {"x1": 1}}


@pytest.mark.parametrize("cls", list(MAPPINGS), ids=lambda cls: cls.__name__)
def test_each_instance_gets_its_own_copy_of_a_mapping_field(cls):
    (name, _), = [(n, r) for n, r in cls._value_fields if not r]
    required = SAMPLES[cls][0]
    a, b = cls(*required), cls(*required)
    assert getattr(a, name) == {} and type(getattr(a, name)) is dict
    assert getattr(a, name) is not getattr(b, name)
    given = dict(MAPPINGS[cls])
    c = cls(*required, given)
    assert getattr(c, name) == given and getattr(c, name) is not given
    given.clear()
    assert getattr(c, name) == MAPPINGS[cls]


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_optional_field_has_a_hashable_class_default():
    """The constructor and the JSON reader take a missing field's default
    from the class, so one default object serves every instance: it must
    not be one that an instance could change."""
    loose = [f"{cls.__name__}.{name}" for cls in SAMPLES
             for name, required in cls._value_fields if not required
             and not (name in cls.__dict__ and (cls.__dict__[name] is EMPTY_MAPPING
                                                or _hashable(cls.__dict__[name])))]
    assert loose == []


def test_z2_character_keeps_its_slots():
    c = Z2Character((0, 1), (1, 1))
    assert Z2Character.__slots__ == ("ab", "sigma")
    assert not hasattr(c, "__dict__")
    fresh = object.__new__(Z2Character)
    Z2Character.ab.__set__(fresh, (0, 1))
    Z2Character.sigma.__set__(fresh, (1, 1))
    assert fresh == c and hash(fresh) == hash(c)


def test_a_stored_value_skips_the_constructor_and_hides_other_names():
    checked = []

    @frozen_value
    class Pair:
        a: int
        b: tuple = ()

        def __post_init__(self):
            checked.append(self.a)

    v = Pair._store(1, (2,))
    object.__setattr__(v, "_kept", [3])
    assert checked == [] and v._kept == [3]
    built = Pair(1, (2,))
    assert checked == [1]
    assert v == built and repr(v) == repr(built) and hash(v) == hash(built)
    with pytest.raises(FrozenFieldError):
        v.a = 2


def _bytes_per_value(build, n: int = 5000) -> float:
    """The memory that n values from build() hold, per value, traced by
    tracemalloc.  The list that keeps them is made before tracing starts,
    and the free lists of small tuples and of dicts are emptied first, so
    that every object a value keeps is allocated, and counted, while
    tracing."""
    build()
    values = [None] * n
    drained = [[(i,), (i, i), (i, i, i)] for i in range(3000)]
    drained.append([{} for _ in range(200)])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            values[i] = build()
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()


def test_stored_and_read_values_are_no_larger_than_constructed_ones():
    """A one-weight line bundle read from JSON (store, then _rules) or made
    by par_dual (store, then its pardeg pair) keeps its fields inline, as
    one the constructor builds does.  An instance dict of its own would add
    about 140 bytes; 16 are allowed for the measure's slack."""
    line = ParabolicLineBundle(0, {"x1": H})
    obj = json.loads(json.dumps(to_json(line)))
    built = _bytes_per_value(lambda: ParabolicLineBundle(0, {"x1": H}))
    read = _bytes_per_value(lambda: from_json(ParabolicLineBundle, obj))
    dual = _bytes_per_value(lambda: par_dual(line))
    assert max(read, dual) <= built + 16, (built, read, dual)


ROWS = [(cls, args, payload) for cls, rows in REFUSALS.items()
        for args, payload in rows]


@pytest.mark.parametrize("cls,args,payload", ROWS,
                         ids=[f"{cls.__name__}-{p['error']}" for cls, _, p in ROWS])
def test_post_init_refusals_match_the_twin(cls, args, payload):
    with pytest.raises(DomainError) as ours:
        cls(*args)
    with pytest.raises(DomainError) as theirs:
        _twin(cls)(*args)
    assert ours.value.payload() == theirs.value.payload() == payload
