import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs.codec import from_json, to_json
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import laurent_matrix, par_to_orb_local
from parhiggs.parbun import (
    ParabolicBundle,
    ParabolicFlag,
    ParabolicLineBundle,
    par_dual,
    par_tensor_line,
    pardeg,
    parslope,
    trivial_flag,
)
from parhiggs.surface import standard_surface

H = Fraction(1, 2)


def rand_bundle(rng, surf, max_rank=4):
    rank = rng.randint(1, max_rank)
    flags = {}
    for lbl in surf.labels():
        denom = rng.choice([2, 3, 4, 6])
        weights = sorted(rng.sample([Fraction(i, denom) for i in range(denom)],
                                    rng.randint(1, min(rank, denom))))
        mults = [1] * len(weights)
        for _ in range(rank - len(weights)):
            mults[rng.randrange(len(mults))] += 1
        flags[lbl] = ParabolicFlag(tuple(mults), tuple(weights))
    return ParabolicBundle(rank, rng.randint(-5, 5), flags)


def rand_line(rng, surf):
    return ParabolicLineBundle(
        rng.randint(-4, 4),
        {lbl: Fraction(rng.randint(0, 3), 4) for lbl in surf.labels()})


def test_pardeg_examples():
    surf = standard_surface(2, 1)
    l0 = ParabolicLineBundle(1, {"x1": H})
    assert pardeg(l0, surf) == Fraction(3, 2)

    plain = ParabolicBundle(3, -2, {"x1": trivial_flag(3)})
    assert pardeg(plain, surf) == -2

    surf2 = standard_surface(2, 2)
    b = ParabolicBundle(2, -1, {x: ParabolicFlag((1, 1), (Fraction(0), H))
                                for x in surf2.labels()})
    assert pardeg(b, surf2) == 0
    assert parslope(b, surf2) == 0


def test_parslope():
    surf = standard_surface(2, 1)
    l = ParabolicLineBundle(2, {"x1": H})
    assert parslope(l, surf) == pardeg(l, surf)
    b = ParabolicBundle(4, 6, {"x1": trivial_flag(4)})
    assert parslope(b, surf) == Fraction(3, 2)


def test_par_dual_lines():
    assert par_dual(ParabolicLineBundle(3)) == ParabolicLineBundle(-3)
    d = par_dual(ParabolicLineBundle(3, {"x1": H}))
    assert d.degree == -4 and d.weight("x1") == H


def test_line_dual_equals_the_checked_construction():
    rng = random.Random(17)
    for _ in range(300):
        surf = standard_surface(rng.randint(0, 2), rng.randint(0, 4))
        denom = rng.choice([1, 2, 3, 4, 6, 12])
        b = ParabolicLineBundle(rng.randint(-9, 9), {
            lbl: Fraction(rng.randrange(denom), denom)
            for lbl in surf.labels() if rng.random() < 0.8})
        d = par_dual(b)
        checked = ParabolicLineBundle(d.degree, dict(d.weight_at))
        assert d == checked
        assert repr(d) == repr(checked)
        assert d._pardeg_pair == checked._pardeg_pair
        assert pardeg(d, surf) == -pardeg(b, surf)
        assert d.weight_at is not b.weight_at
        assert all(type(w) is Fraction for w in d.weight_at.values())


def test_par_dual_involution_and_antisymmetry():
    rng = random.Random(5)
    for _ in range(150):
        surf = standard_surface(rng.randint(0, 2), rng.randint(1, 3))
        b = rand_bundle(rng, surf)
        d = par_dual(b)
        assert pardeg(d, surf) == -pardeg(b, surf)
        assert par_dual(d) == b


def test_par_tensor_line_examples():
    surf = standard_surface(1, 1)
    b = ParabolicBundle(2, 0, {"x1": ParabolicFlag((1, 1), (Fraction(0), H))})
    assert par_tensor_line(b, ParabolicLineBundle(0)) == b

    t = par_tensor_line(ParabolicLineBundle(0, {"x1": H}),
                        ParabolicLineBundle(0, {"x1": H}))
    assert t.degree == 1 and t.weight("x1") == 0
    # weights summing below 1 add without a wrap
    assert par_tensor_line(ParabolicLineBundle(0, {"x1": Fraction(1, 4)}),
                           ParabolicLineBundle(1, {"x1": H})) == \
        ParabolicLineBundle(1, {"x1": Fraction(3, 4)})

    tb = par_tensor_line(b, ParabolicLineBundle(0, {"x1": H}))
    assert tb.degree == 1
    assert tb.flag("x1") == ParabolicFlag((1, 1), (Fraction(0), H))


def test_par_tensor_line_pardeg_random():
    rng = random.Random(17)
    for _ in range(150):
        surf = standard_surface(rng.randint(0, 2), rng.randint(1, 3))
        b = rand_bundle(rng, surf)
        l = rand_line(rng, surf)
        t = par_tensor_line(b, l)
        assert pardeg(t, surf) == pardeg(b, surf) + b.rank * pardeg(l, surf)


def test_par_tensor_line_of_rank_zero_bundle_is_unchanged():
    # a rank-0 bundle has no flags: deg E + rk E . deg L = deg E
    surf = standard_surface(1, 1)
    l = ParabolicLineBundle(2, {"x1": H})
    for b in (ParabolicBundle(0, 0, {}), ParabolicBundle(0, 3)):
        t = par_tensor_line(b, l)
        assert t == b
        assert pardeg(t, surf) == pardeg(b, surf) + b.rank * pardeg(l, surf)


def test_rank_zero_bundle_has_no_flag():
    with pytest.raises(DomainError) as e:
        ParabolicBundle(0, 0).flag("x1")
    assert e.value.payload() == {"error": "rank_zero_has_no_flag", "label": "x1"}
    assert ParabolicBundle(1, 0).flag("x1") == trivial_flag(1)


def test_json_round_trips():
    surf = standard_surface(1, 2)
    rng = random.Random(31)
    for _ in range(30):
        b = rand_bundle(rng, surf)
        assert from_json(ParabolicBundle, to_json(b)) == b
        l = rand_line(rng, surf)
        assert from_json(ParabolicLineBundle, to_json(l)) == l
    assert to_json(ParabolicBundle(1, 2, {"x1": ParabolicFlag((1,), (H,))})) \
        == {"rank": 1, "degree": 2, "flags": {"x1": {"mult": [1], "weights": ["1/2"]}}}


def test_weight_validation():
    with pytest.raises(DomainError):
        ParabolicLineBundle(0, {"x1": Fraction(3, 2)})
    with pytest.raises(DomainError):
        ParabolicFlag((1, 1), (H, H))
    with pytest.raises(DomainError):
        pardeg(ParabolicLineBundle(0, {"nope": H}), standard_surface(1, 1))


# ---------------------------------------------- the stored line pardeg ----
# A line bundle's pardeg is computed once, when it is built; these properties
# hold it to the definition deg + sum over the surface's points of the weight.


@st.composite
def spelled_weights(draw):
    """A weight in [0, 1) spelled as a Fraction, an unreduced "p/q" string or,
    for 0, an int."""
    q = draw(st.integers(1, 12))
    p = draw(st.integers(0, q - 1))
    m = draw(st.integers(1, 3))
    spellings = [Fraction(p, q), f"{p * m}/{q * m}"] + ([0] if p == 0 else [])
    return draw(st.sampled_from(spellings))


@st.composite
def surfaces(draw):
    return standard_surface(draw(st.integers(0, 2)), draw(st.integers(0, 4)))


@st.composite
def raw_lines(draw, surf):
    """(degree, {label: spelled weight}) on some of surf's points."""
    points = draw(st.lists(st.sampled_from(surf.labels()), unique=True)) \
        if surf.s else []
    return draw(st.integers(-6, 6)), {x: draw(spelled_weights()) for x in points}


@st.composite
def raw_flags(draw, rank):
    """(multiplicities, spelled increasing weights) of a flag of this rank."""
    q = draw(st.integers(1, 12))
    tops = sorted(draw(st.sets(st.integers(0, q - 1), min_size=1,
                               max_size=min(rank, q))))
    cuts = sorted(draw(st.permutations(range(1, rank)))[:len(tops) - 1])
    mults = tuple(b - a for a, b in zip([0, *cuts], [*cuts, rank]))
    spelled = tuple(draw(st.sampled_from([Fraction(p, q), f"{p}/{q}"]))
                    for p in tops)
    return mults, spelled


def line_definition(degree, raw, surf):
    return degree + sum((Fraction(raw[x]) if x in raw else Fraction(0)
                         for x in surf.labels()), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_line_pardeg_is_the_definition(data):
    surf = data.draw(surfaces())
    degree, raw = data.draw(raw_lines(surf))
    assert pardeg(ParabolicLineBundle(degree, raw), surf) == \
        line_definition(degree, raw, surf)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bundle_pardeg_is_the_definition(data):
    surf = data.draw(surfaces())
    rank = data.draw(st.integers(1, 4))
    points = data.draw(st.lists(st.sampled_from(surf.labels()), unique=True)) \
        if surf.s else []
    raw = {x: data.draw(raw_flags(rank)) for x in points}
    degree = data.draw(st.integers(-6, 6))
    b = ParabolicBundle(rank, degree, {x: ParabolicFlag(*f) for x, f in raw.items()})
    want = degree + sum((sum((k * Fraction(a) for k, a in zip(*raw[x])), Fraction(0))
                         if x in raw else Fraction(0) for x in surf.labels()),
                        Fraction(0))
    assert pardeg(b, surf) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_line_par_dual_negates_pardeg_and_is_an_involution(data):
    surf = data.draw(surfaces())
    line = ParabolicLineBundle(*data.draw(raw_lines(surf)))
    dual = par_dual(line)
    assert pardeg(dual, surf) == -pardeg(line, surf)
    assert par_dual(dual) == line
    assert pardeg(par_dual(dual), surf) == pardeg(line, surf)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_par_tensor_line_adds_pardegs(data):
    surf = data.draw(surfaces())
    a = ParabolicLineBundle(*data.draw(raw_lines(surf)))
    l = ParabolicLineBundle(*data.draw(raw_lines(surf)))
    assert pardeg(par_tensor_line(a, l), surf) == pardeg(a, surf) + pardeg(l, surf)
    b = ParabolicBundle(2, data.draw(st.integers(-6, 6)),
                        {x: ParabolicFlag(*data.draw(raw_flags(2)))
                         for x in surf.labels()})
    assert pardeg(par_tensor_line(b, l), surf) == \
        pardeg(b, surf) + 2 * pardeg(l, surf)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_stored_pardeg_is_outside_equality_repr_and_json(data):
    surf = data.draw(surfaces())
    degree, raw = data.draw(raw_lines(surf))
    line = ParabolicLineBundle(degree, raw)
    same = ParabolicLineBundle(degree, {x: Fraction(w) for x, w in raw.items()})
    moved = pardeg(line, surf) + 1
    object.__setattr__(same, "_pardeg_pair", (moved.numerator, moved.denominator))
    assert [name for name, _ in line._value_fields] == ["degree", "weight_at"]
    assert line == same
    assert repr(line) == repr(same)
    assert to_json(line) == to_json(same) == {
        "degree": degree,
        "weights": {x: str(Fraction(w)) for x, w in sorted(raw.items())}}
    assert from_json(ParabolicLineBundle, to_json(line)) == line


def test_weight_spellings_build_equal_lines():
    spelled = [ParabolicLineBundle(1, {"x1": 0, "x2": "2/4"}),
               ParabolicLineBundle(1, {"x1": "0", "x2": "1/2"}),
               ParabolicLineBundle(1, {"x1": Fraction(0), "x2": H})]
    assert spelled[0] == spelled[1] == spelled[2]
    surf = standard_surface(1, 2)
    assert {pardeg(l, surf) for l in spelled} == {Fraction(3, 2)}
    assert all(type(w) is Fraction for l in spelled for w in l.weight_at.values())


# ------------------------------------------------ refusals, pinned exactly ----


@pytest.mark.parametrize("spelled", [Fraction(1), 1, "1",
                                     Fraction(-1, 4), "-1/4",
                                     Fraction(3, 2), "3/2", "6/4"],
                         ids=lambda w: f"{type(w).__name__}:{w}")
def test_weight_out_of_range_payload(spelled):
    for build in (lambda: ParabolicLineBundle(0, {"x1": spelled}),
                  lambda: ParabolicFlag((1,), (spelled,)),
                  lambda: ParabolicFlag((1, 1), (Fraction(0), spelled))):
        with pytest.raises(DomainError) as err:
            build()
        assert err.value.payload() == {"error": "weight_out_of_range",
                                       "weight": Fraction(spelled)}
        assert type(err.value.info["weight"]) is Fraction


@pytest.mark.parametrize("weight", [0.1, 0.5, 0.0, False, True, Decimal("0.5")],
                         ids=repr)
def test_inexact_or_bool_weight_is_refused(weight):
    """A float is not rounded to a Fraction and a bool is not read as 0 or 1;
    the rule is shared by flags, line bundles and the local dictionary."""
    higgs = laurent_matrix(1, {}, (-1, 8), "dw/w")
    for build in (lambda: ParabolicLineBundle(0, {"x1": weight}),
                  lambda: ParabolicLineBundle(0, {"x1": H, "x2": weight}),
                  lambda: ParabolicFlag((1,), (weight,)),
                  lambda: par_to_orb_local(2, [weight], higgs)):
        with pytest.raises(DomainError) as err:
            build()
        assert err.value.code == "bad_weight"
        assert err.value.info["weight"] is weight


@pytest.mark.parametrize("degree", [1.5, 2.0, True, False, "1", Fraction(1)],
                         ids=repr)
def test_non_int_degree_is_refused(degree):
    for weights in ({}, {"x1": H}):
        with pytest.raises(DomainError) as err:
            ParabolicLineBundle(degree, weights)
        assert err.value.payload() == {"error": "bad_degree", "degree": degree}
        assert err.value.info["degree"] is degree


def test_flag_multiplicity_below_one_is_refused():
    for mult in ((0,), (2, 0), (-1, 3)):
        weights = tuple(Fraction(i, 3) for i in range(len(mult)))
        with pytest.raises(DomainError) as err:
            ParabolicFlag(mult, weights)
        assert err.value.payload() == {"error": "bad_flag_multiplicity",
                                       "mult": mult}


def test_a_flag_keeps_its_multiplicities_and_weights_as_tuples():
    flag = ParabolicFlag([1, 1], iter([0, H]))
    assert flag == ParabolicFlag((1, 1), (Fraction(0), H))
    assert type(flag.multiplicities) is tuple and type(flag.weights) is tuple
    hash(flag)


def test_rank_zero_bundle_has_no_slope():
    surf = standard_surface(1, 1)
    assert pardeg(ParabolicBundle(0, 0), surf) == 0
    with pytest.raises(DomainError) as err:
        parslope(ParabolicBundle(0, 0), surf)
    assert err.value.payload() == {"error": "slope_of_rank_zero"}


def test_unknown_points_payload_is_sorted():
    surf = standard_surface(1, 1)
    line = ParabolicLineBundle(0, {"x3": H, "x1": H, "x2": Fraction(0)})
    bundle = ParabolicBundle(1, 0, {x: trivial_flag(1) for x in ("x3", "x1", "x2")})
    # flags at unknown labels only, one of them with a nonzero weight
    weighted = ParabolicBundle(2, 0, {"x3": ParabolicFlag((1, 1), (Fraction(0), H)),
                                      "x2": trivial_flag(2)})
    for b in (line, bundle, weighted):
        for call in (pardeg, parslope):
            with pytest.raises(DomainError) as err:
                call(b, surf)
            assert err.value.payload() == {"error": "flag_surface_mismatch",
                                           "unknown": ["x2", "x3"]}


def test_points_on_a_surface_without_marked_points():
    surf = standard_surface(2, 0)
    assert pardeg(ParabolicLineBundle(3), surf) == 3
    assert pardeg(ParabolicLineBundle(-2, {}), surf) == -2
    assert pardeg(ParabolicBundle(2, -1), surf) == -1
    assert parslope(ParabolicBundle(2, -1), surf) == Fraction(-1, 2)
    for b in (ParabolicLineBundle(0, {"x1": Fraction(0)}),
              ParabolicBundle(1, 0, {"x1": trivial_flag(1)})):
        with pytest.raises(DomainError) as err:
            pardeg(b, surf)
        assert err.value.payload() == {"error": "flag_surface_mismatch",
                                       "unknown": ["x1"]}


@pytest.mark.parametrize("call,payload", [
    (lambda: ParabolicBundle(1.5, 0), {"error": "bad_rank", "rank": 1.5}),
    (lambda: ParabolicBundle(True, 0), {"error": "bad_rank", "rank": True}),
    (lambda: ParabolicBundle(1, 1.5), {"error": "bad_degree", "degree": 1.5}),
    (lambda: ParabolicBundle(1, True), {"error": "bad_degree", "degree": True}),
    (lambda: ParabolicFlag((1.5,), (Fraction(0),)),
     {"error": "bad_flag_multiplicity", "mult": (1.5,)}),
    (lambda: ParabolicFlag((True, 1), (Fraction(0), H)),
     {"error": "bad_flag_multiplicity", "mult": (True, 1)}),
], ids=["rank-1.5", "rank-True", "degree-1.5", "degree-True", "mult-1.5",
        "mult-True"])
def test_bundle_ranks_degrees_and_multiplicities_must_be_ints(call, payload):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.payload() == payload


@pytest.mark.parametrize("spelled", ["1/0", "half", "1/2/3", ""], ids=repr)
def test_malformed_weight_string_is_refused_as_a_rational(spelled):
    with pytest.raises(DomainError) as err:
        ParabolicLineBundle(0, {"x1": spelled})
    assert err.value.payload() == {"error": "bad_rational", "value": spelled}


def test_unknown_points_with_a_label_that_is_not_a_string():
    surf = standard_surface(1, 1)
    line = ParabolicLineBundle(0, {1: H, "x2": H})
    bundle = ParabolicBundle(1, 0, {"x2": trivial_flag(1), 1: trivial_flag(1)})
    for b in (line, bundle):
        with pytest.raises(DomainError) as err:
            pardeg(b, surf)
        assert err.value.payload() == {"error": "flag_surface_mismatch",
                                       "unknown": [1, "x2"]}


@pytest.mark.parametrize("flag", ["junk", None, ((1, 1), (0, "1/2")),
                                  {"mult": [2], "weights": ["0"]}])
def test_a_flag_that_is_not_a_parabolic_flag_is_refused(flag):
    with pytest.raises(DomainError) as e:
        ParabolicBundle(2, 0, {"x1": trivial_flag(2), "x2": flag})
    assert e.value.payload() == {"error": "flag_not_parabolic_flag",
                                 "label": "x2", "type": type(flag).__name__}
    # the rank and degree are read first, and keep their codes
    with pytest.raises(DomainError) as e:
        ParabolicBundle(-1, 0, {"x2": flag})
    assert e.value.code == "bad_rank"
    with pytest.raises(DomainError) as e:
        ParabolicBundle(2, 0.5, {"x2": flag})
    assert e.value.code == "bad_degree"
