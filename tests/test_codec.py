"""The JSON codec: round trips, strictness on input, and schema validity."""

import ast
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import get_args, get_type_hints

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import parhiggs
from parhiggs import cli
from parhiggs.cli import _dump
from parhiggs.codec import JsonShapeError, decoder, from_json, to_json
from parhiggs.components import (
    CountMode,
    count_components,
    emit_tables,
    s1_reduction_report,
    so0_2n,
    sp2nr,
    sunn,
)
from parhiggs.dimension import (
    DimReport,
    complex_group_data,
    dim_complex_group,
    lie_catalog,
    teichmuller_dimension,
)
from parhiggs.orbifold import (
    VLineBundle,
    laurent_from_json,
    laurent_matrix,
    laurent_to_json,
    z2_character_enumerate,
)
from parhiggs.parbun import ParabolicBundle, ParabolicFlag, ParabolicLineBundle
from parhiggs.stability import (
    DecomposableHiggsModel,
    SpTripleModel,
    StabilityReport,
    hitchin_model,
    hitchin_sp_triple,
    stability_verdict,
)
from parhiggs.surface import MarkedPoint, MarkedSurface, standard_surface

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schemas"
REGISTRY = Registry().with_resources(
    (doc["$id"], Resource.from_contents(doc))
    for doc in (json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.json")))


def check_schema(payload, ref: str) -> None:
    """Validate payload against the schema at ref, e.g. "roots#/$defs/x"."""
    name, _, pointer = ref.partition("#")
    target = f"parhiggs/{name}.schema.json" + (f"#{pointer}" if pointer else "")
    jsonschema.Draft202012Validator({"$ref": target},
                                    registry=REGISTRY).validate(payload)


# ---------------------------------------------------------- strategies ----

LABELS = st.sampled_from(["x1", "x2", "x3", "p", "q"])
WEIGHTS = st.fractions(min_value=0, max_value=Fraction(11, 12),
                       max_denominator=12)
SURFACES = st.builds(
    MarkedSurface, genus=st.integers(0, 4),
    points=st.lists(st.builds(MarkedPoint, label=LABELS,
                              order=st.integers(2, 6)),
                    max_size=4, unique_by=lambda p: p.label).map(tuple))
LINES = st.builds(ParabolicLineBundle, degree=st.integers(-9, 9),
                  weight_at=st.dictionaries(LABELS, WEIGHTS, max_size=3))


def flags(rank: int):
    """Flags of the given rank: k distinct weights, the last step taking the
    rank left over."""
    return st.lists(WEIGHTS, min_size=1, max_size=rank, unique=True).map(
        lambda ws: ParabolicFlag((1,) * (len(ws) - 1) + (rank - len(ws) + 1,),
                                 tuple(sorted(ws))))


BUNDLES = st.integers(1, 4).flatmap(lambda r: st.builds(
    ParabolicBundle, rank=st.just(r), degree=st.integers(-9, 9),
    flag_at=st.dictionaries(LABELS, flags(r), max_size=3)))


def arrows(n: int):
    return st.frozensets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))


def symmetric(pairs):
    return frozenset(pairs | {(j, i) for (i, j) in pairs})


MODELS = st.integers(1, 4).flatmap(lambda n: st.builds(
    DecomposableHiggsModel, SURFACES,
    st.lists(LINES, min_size=n, max_size=n).map(tuple), arrows(n)))
TRIPLES = st.integers(1, 4).flatmap(lambda n: st.builds(
    SpTripleModel, SURFACES, st.lists(LINES, min_size=n, max_size=n).map(tuple),
    arrows(n).map(symmetric), arrows(n).map(symmetric)))
VLINES = st.builds(VLineBundle, desing_degree=st.integers(-9, 9),
                   isotropy=st.dictionaries(LABELS, st.integers(0, 5), max_size=3))


# --------------------------------------------------------- round trips ----

ROUND_TRIPS = [
    (MarkedSurface, SURFACES),
    (ParabolicLineBundle, LINES),
    (ParabolicBundle, BUNDLES),
    (DecomposableHiggsModel, MODELS),
    (SpTripleModel, TRIPLES),
    (VLineBundle, VLINES),
]


@pytest.mark.parametrize("cls,values", ROUND_TRIPS,
                         ids=[cls.__name__ for cls, _ in ROUND_TRIPS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip(cls, values, data):
    x = data.draw(values)
    text = json.dumps(to_json(x))
    assert from_json(cls, json.loads(text)) == x


# -------------------------------------------- JSON input checked once ----

# the JSON keys that may be left out, where their value is empty
_OPTIONAL_KEYS = {"points", "weights", "flags", "arrows", "beta", "gamma"}


def _without_empty(obj):
    """obj with every optional key whose value is empty left out."""
    if isinstance(obj, list):
        return [_without_empty(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _without_empty(v) for k, v in obj.items()
                if not (k in _OPTIONAL_KEYS and v in ([], {}))}
    return obj


def _twin(value):
    """value rebuilt through the constructors, from its own parts."""
    if hasattr(value, "_value_fields"):
        return type(value)(*[_twin(getattr(value, name))
                             for name, _ in value._value_fields])
    if isinstance(value, tuple):
        return tuple([_twin(v) for v in value])
    if isinstance(value, dict):
        return {k: _twin(v) for k, v in value.items()}
    return value


def _state(value):
    """Everything value holds, its kept values too, with each type."""
    if hasattr(value, "_value_fields"):
        return type(value), {k: _state(getattr(value, k))
                             for k in type(value).__slots__ if hasattr(value, k)}
    if isinstance(value, tuple):
        return tuple, tuple([_state(v) for v in value])
    if isinstance(value, dict):
        return type(value), {k: _state(v) for k, v in value.items()}
    return type(value), value


TWINS = [
    (MarkedSurface, SURFACES),
    (ParabolicLineBundle, LINES),
    (ParabolicBundle, BUNDLES),
    (DecomposableHiggsModel, MODELS),
    (SpTripleModel, TRIPLES),
]


@pytest.mark.parametrize("cls,values", TWINS,
                         ids=[cls.__name__ for cls, _ in TWINS])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_value_read_from_json_is_its_constructor_twin(cls, values, data):
    """The reader stores each class's fields and calls its _rules, not its
    constructor; the value is the one the constructors build from the same
    parts, in equality, repr, JSON and every kept value (_pardeg_pair,
    _labels, _label_set), and a model's or triple's _table and _duals stay
    unfilled."""
    x = data.draw(values)
    obj = json.loads(json.dumps(to_json(x)))
    for given_obj in (obj, _without_empty(obj)):
        read = from_json(cls, given_obj)
        twin = _twin(read)
        assert read == twin == x
        assert repr(read) == repr(twin)
        assert to_json(read) == to_json(twin) == obj
        assert _state(read) == _state(twin)
        assert not (hasattr(read, "_table") or hasattr(read, "_duals"))


VALUE_CLASSES = {v for mod in vars(parhiggs).values()
                 if isinstance(mod, type(parhiggs))
                 for v in vars(mod).values()
                 if isinstance(v, type) and hasattr(v, "_value_fields")}


def test_reading_a_triple_or_a_model_runs_no_value_class_init(monkeypatch):
    triple = hitchin_sp_triple(4, 2, 2)
    flag = ParabolicFlag((1, 1), (Fraction(0), Fraction(1, 2)))
    cases = [(SpTripleModel, triple),
             (DecomposableHiggsModel, triple.to_decomposable()),
             (ParabolicBundle, ParabolicBundle(2, 1, {"x1": flag}))]
    calls = []
    for cls in VALUE_CLASSES:
        monkeypatch.setattr(cls, "__init__", lambda self, *args, **kwargs:
                            calls.append(type(self).__name__))
    for cls, value in cases:
        assert from_json(cls, json.loads(json.dumps(to_json(value)))) == value
    assert calls == []


def _load_json_types() -> list:
    """The types cli passes to _load_json, read from its source."""
    names = {k: v for mod in (cli, parhiggs.parbun, parhiggs.stability)
             for k, v in vars(mod).items()}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return [eval(ast.unparse(node.args[2]), names) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "_load_json"]


def _reachable(tp, seen: set) -> set:
    """The value classes tp reads, through its fields and type arguments."""
    if hasattr(tp, "_value_fields") and tp not in seen:
        seen.add(tp)
        for hint in get_type_hints(tp).values():
            _reachable(hint, seen)
    for arg in get_args(tp):
        _reachable(arg, seen)
    return seen


def test_every_value_class_the_cli_reads_from_json_has_a_build_hook():
    """A value class read from JSON is stored and then checked by its own
    _rules, so a new one cannot fall back to a second type pass in its
    constructor unnoticed."""
    reached = set()
    for tp in _load_json_types():
        _reachable(tp, reached)
    assert sorted(cls.__name__ for cls in reached) == [
        "DecomposableHiggsModel", "MarkedPoint", "MarkedSurface",
        "ParabolicBundle", "ParabolicFlag", "ParabolicLineBundle",
        "SpTripleModel"]
    assert [cls.__name__ for cls in reached
            if "_rules" not in vars(cls)] == []


def test_reports_round_trip():
    report = stability_verdict(hitchin_model(4, 2, 1))
    assert from_json(StabilityReport, to_json(report)) == report
    unstable = StabilityReport("unstable", (0, 2), Fraction(-3, 2))
    assert from_json(StabilityReport, to_json(unstable)) == unstable
    dims = teichmuller_dimension(lie_catalog("Sp(4,R)"), 2, 1, rk_m_c=3)
    assert from_json(DimReport, to_json(dims)) == dims


def test_laurent_pair_round_trips():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 4)
        terms = {(i, j): [(d, Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                          for d in rng.sample(range(-1, 9), rng.randint(1, 3))]
                 for i in range(n) for j in range(n) if rng.random() < 0.5}
        mat = laurent_matrix(n, terms, (-1, 8), rng.choice(["dw/w", "dz/z"]))
        m = rng.randint(1, 6)
        text = json.dumps(laurent_to_json(mat, m))
        assert laurent_from_json(json.loads(text)) == (m, mat)


# ------------------------------------------------------------- writing ----

def test_written_form():
    line = ParabolicLineBundle(-1, {"x2": Fraction(1, 3), "x1": Fraction(0)})
    assert to_json(line) == {"degree": -1, "weights": {"x1": "0", "x2": "1/3"}}
    # the written text lists a mapping's keys sorted
    assert list(json.loads(_dump({"line": line}))["line"]["weights"]) == ["x1", "x2"]
    assert to_json({(1, 0), (0, 1)}) == [[0, 1], [1, 0]]
    assert to_json(VLineBundle(3, {"x1": 1})) == {"desing": 3,
                                                  "isotropy": {"x1": 1}}
    assert to_json(sunn(2)) == {"family": "SUnn", "n": 2, "display": "SU(2,2)"}
    assert to_json(CountMode.fixed_parity("odd")) == {
        "variant": "max_fixed_alpha", "parity": "odd"}
    assert to_json(s1_reduction_report(so0_2n(3), 2)).get("kd_twisted_cases") \
        == [{"label": "w1_nonzero", "count": 30},   # (2^4 - 1) * 2^1
            {"label": "w1_zero_degree_classes", "count": 7}]  # 0 .. 4g-4+2s


# ---------------------------------------------------- strictness on input ----

LINE = {"degree": 1, "weights": {"x1": "1/2"}}


LINE_REFUSALS = [
    ({}, "$", "an object with key 'degree'"),         # degree is required
    ([], "$", "an object"),
    ({"degree": 1.7}, "$.degree", "an integer"),
    ({"degree": True}, "$.degree", "an integer"),
    ({"degree": "1"}, "$.degree", "an integer"),
    ({"degree": 1, "weights": {"x1": 0.5}}, "$.weights", 'a rational "p/q"'),
    ({"degree": 1, "weights": ["1/2"]}, "$.weights", "an object"),
    ({"degree": 1, "weight": {}}, "$",                # unknown key
     "an object with keys among degree, weights"),
    ({"degree": 1, "weights": {"x1": "3/2"}, "w": 0}, "$",  # before the
     "an object with keys among degree, weights"),          # weight range
]


@pytest.mark.parametrize("obj,at,expected", LINE_REFUSALS,
                         ids=[f"obj{i}-{at}" for i, (_, at, _) in
                              enumerate(LINE_REFUSALS)])
def test_malformed_line_is_refused(obj, at, expected):
    with pytest.raises(JsonShapeError) as err:
        from_json(ParabolicLineBundle, obj)
    assert err.value.code == "bad_json"
    assert err.value.info["at"] == at
    assert err.value.info["expected"] == expected


TRIPLE_REFUSALS = [
    ({"beta": [[0]]}, "$.beta", "a list of 2"),
    ({"beta": [[0, 0, 1]]}, "$.beta", "a list of 2"),
    ({"gamma": [[0, "0"]]}, "$.gamma", "an integer"),
    ({"v_summands": [dict(LINE, degree=None)]}, "$.v_summands.degree",
     "an integer"),
    ({"surface": {"genus": 1, "points": [{"label": 1}]}},
     "$.surface.points.label", "a string"),
    ({"v_summands": [dict(LINE, mult=[1])]}, "$.v_summands",   # unknown key
     "an object with keys among degree, weights"),
    ({"v_summands": [{"weights": {}}]}, "$.v_summands",         # missing key
     "an object with key 'degree'"),
    ({"surface": {"points": []}}, "$.surface", "an object with key 'genus'"),
    ({"beta": [[True, 0]]}, "$.beta", "an integer"),
    ({"gamma": [0, 0]}, "$.gamma", "a list of 2"),
    ({"gamma": {}}, "$.gamma", "a list"),
    ({"surface": [1, []]}, "$.surface", "an object"),
    ({"v_summands": [dict(LINE, weights={"x1": 0.5})]}, "$.v_summands.weights",
     'a rational "p/q"'),
    ({"surface": {"genus": 1}, "alpha": 0}, "$",
     "an object with keys among beta, gamma, surface, v_summands"),
]


@pytest.mark.parametrize("change,at,expected", TRIPLE_REFUSALS,
                         ids=[f"change{i}-{at}" for i, (_, at, _) in
                              enumerate(TRIPLE_REFUSALS)])
def test_malformed_triple_is_refused(change, at, expected):
    obj = dict(to_json(hitchin_sp_triple(2, 2, 1)), **change)
    with pytest.raises(JsonShapeError) as err:
        from_json(SpTripleModel, obj)
    assert err.value.info["at"] == at
    assert err.value.info["expected"] == expected


def test_a_refusal_comes_from_the_first_field_in_declaration_order():
    """Fields are read in declaration order (surface, v_summands, beta,
    gamma) and unknown keys are checked last, whatever the object's key
    order: each case mends the fields before the one it expects refused."""
    good = to_json(hitchin_sp_triple(2, 2, 1))
    bad = {"extra": 1, "gamma": [[0]], "beta": [[0]], "v_summands": 0,
           "surface": {"genus": 1.5}}
    keys = "beta, gamma, surface, v_summands"
    for mended, at, expected in [
            ((), "$.surface.genus", "an integer"),
            (("surface",), "$.v_summands", "a list"),
            (("surface", "v_summands"), "$.beta", "a list of 2"),
            (("surface", "v_summands", "beta"), "$.gamma", "a list of 2"),
            (("surface", "v_summands", "beta", "gamma"), "$",
             f"an object with keys among {keys}")]:
        obj = dict(bad, **{k: good[k] for k in mended})
        with pytest.raises(JsonShapeError) as err:
            from_json(SpTripleModel, obj)
        assert (err.value.info["at"], err.value.info["expected"]) == (at, expected)
    without_surface = {k: v for k, v in bad.items() if k != "surface"}
    with pytest.raises(JsonShapeError) as err:
        from_json(SpTripleModel, without_surface)
    assert (err.value.info["at"], err.value.info["expected"]) == \
        ("$", "an object with key 'surface'")


def test_optional_keys_are_those_with_defaults():
    surface = {"genus": 1}
    assert from_json(MarkedSurface, surface) == MarkedSurface(1)
    model = from_json(DecomposableHiggsModel,
                      {"surface": surface, "summands": [{"degree": 0}]})
    assert model.arrows == frozenset() and model.summands[0].weight_at == {}
    first, second = (from_json(ParabolicLineBundle, {"degree": 0}) for _ in "ab")
    assert first.weight_at == {} and first.weight_at is not second.weight_at
    with pytest.raises(JsonShapeError):
        from_json(DecomposableHiggsModel, {"summands": []})
    with pytest.raises(JsonShapeError):
        from_json(ParabolicFlag, {"mult": [1]})


def test_non_json_types_are_a_programming_error():
    with pytest.raises(TypeError):
        from_json(float, 1.5)
    # the only fixed-size tuple read from JSON is an all-int one
    with pytest.raises(TypeError):
        decoder(tuple[str, int])


# -------------------------------------------------------------- schemas ----

def test_cli_output_types_match_their_schemas():
    report = stability_verdict(hitchin_model(3, 2, 1))
    check_schema(dict(to_json(report), feasibility_violations=[]), "stability")
    check_schema(to_json(hitchin_model(4, 1, 2)), "hitchin#/properties/model")
    check_schema(to_json(hitchin_sp_triple(4, 1, 2)),
                 "hitchin#/properties/sp_triple")
    check_schema(to_json(standard_surface(2, 3)), "common#/$defs/surface")
    for mode in (CountMode.max_union(), CountMode.fixed_parity("even"),
                 CountMode.fixed_parity("odd"), CountMode.punctured()):
        check_schema(to_json(count_components(sp2nr(2), 2, 2, mode)),
                     "components")
    check_schema(to_json(s1_reduction_report(sp2nr(2), 2)), "s1_report")
    check_schema({"tables": to_json(emit_tables(1, 2)), "genus": 1,
                  "marked_points": 2}, "tables")
    for report in (teichmuller_dimension(lie_catalog("SL(3,R)"), 2, 1),
                   dim_complex_group(complex_group_data("G", 3), 2, 1)):
        check_schema(dict(to_json(report), formula="teich", group="G"), "dims")
    for character in z2_character_enumerate(standard_surface(1, 2)):
        check_schema(to_json(character),
                     "characters#/properties/characters/items")


@settings(max_examples=60, deadline=None)
@given(line=LINES, model=MODELS, vline=VLINES)
def test_generated_values_match_their_schemas(line, model, vline):
    check_schema(to_json(line), "common#/$defs/parabolicLine")
    check_schema(to_json(model), "hitchin#/properties/model")
    check_schema(to_json(model.surface), "common#/$defs/surface")
    payload = to_json(vline)
    if all(payload["isotropy"].values()):   # residue 0 is never stored
        check_schema(payload, "roots#/properties/types/items")
