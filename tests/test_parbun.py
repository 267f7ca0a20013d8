import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs.codec import from_json, to_json
from parhiggs.exact_core import DomainError
from parhiggs.parbun import (
    ParabolicBundle,
    ParabolicFlag,
    ParabolicLineBundle,
    ResidueBlockPattern,
    is_parabolic_map,
    line_to_bundle,
    par_direct_sum,
    par_dual,
    par_tensor_line,
    pardeg,
    parslope,
    residue_class,
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


def test_par_direct_sum():
    surf = standard_surface(2, 1)
    v = ParabolicBundle(2, 1, {"x1": ParabolicFlag((1, 1), (Fraction(1, 4), H))})
    e = par_direct_sum(v, par_dual(v))
    assert e.rank == 4
    assert pardeg(e, surf) == 0

    assert par_direct_sum(v, ParabolicBundle(0, 0, {})) == v

    l = ParabolicLineBundle(1, {"x1": H})
    two = par_direct_sum(line_to_bundle(l, surf), line_to_bundle(l, surf))
    assert two == ParabolicBundle(2, 2, {"x1": ParabolicFlag((2,), (H,))})
    assert pardeg(two, surf) == 3


def test_par_direct_sum_pardeg_random():
    rng = random.Random(23)
    for _ in range(100):
        surf = standard_surface(rng.randint(0, 2), rng.randint(1, 3))
        a, b = rand_bundle(rng, surf), rand_bundle(rng, surf)
        assert pardeg(par_direct_sum(a, b), surf) == pardeg(a, surf) + pardeg(b, surf)


def test_residue_class():
    flag = ParabolicFlag((1, 1, 1), (Fraction(0), Fraction(1, 4), H))
    zero = ResidueBlockPattern(tuple((False,) * 3 for _ in range(3)))
    assert residue_class(zero, flag) == "strongly_parabolic"
    lower = ResidueBlockPattern(tuple(tuple(j <= i for j in range(3))
                                      for i in range(3)))
    assert residue_class(lower, flag) == "parabolic"
    strict = ResidueBlockPattern(tuple(tuple(j < i for j in range(3))
                                       for i in range(3)))
    assert residue_class(strict, flag) == "strongly_parabolic"
    upper = ResidueBlockPattern(((False, True, False),
                                 (False, False, False),
                                 (False, False, False)))
    assert residue_class(upper, flag) == "neither"
    with pytest.raises(DomainError):
        residue_class(zero, trivial_flag(2))


def test_residue_strongly_parabolic_is_nilpotent():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(1, 4)
        pat = ResidueBlockPattern(tuple(tuple(rng.random() < 0.4 for _ in range(n))
                                        for _ in range(n)))
        flag = ParabolicFlag((1,) * n, tuple(Fraction(i, n + 1) for i in range(n)))
        if residue_class(pat, flag) == "strongly_parabolic":
            # strictly lower block-triangular matrices are nilpotent: the n-th
            # power of the adjacency relation must be empty
            reach = {(i, j) for i, row in enumerate(pat.allowed)
                     for j, ok in enumerate(row) if ok}
            paths = reach
            for _ in range(n):
                paths = {(i, l) for (i, j) in paths for (k, l) in reach if j == k}
            assert not paths


def test_is_parabolic_map():
    surf = standard_surface(1, 1)
    b = ParabolicBundle(2, 0, {"x1": ParabolicFlag((1, 1), (Fraction(0), H))})
    ident = {"x1": [[True, False], [False, True]]}
    assert is_parabolic_map(b, b, ident)
    assert is_parabolic_map(b, b, ident, strongly=False)

    # weight-1/2 source step into the weight-0 target step
    drop = {"x1": [[False, True], [False, False]]}
    assert not is_parabolic_map(b, b, drop)

    flat = ParabolicBundle(2, 0, {"x1": trivial_flag(2)})
    assert is_parabolic_map(flat, flat, {"x1": [[True]]})
    # parabolic but not strongly: equal weights on the diagonal
    assert not is_parabolic_map(flat, flat, {"x1": [[True]]}, strongly=True)
    with pytest.raises(DomainError):
        is_parabolic_map(b, b, {"x1": [[True]]})


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
    object.__setattr__(same, "_pardeg", pardeg(line, surf) + 1)
    assert [f.name for f in fields(line)] == ["degree", "weight_at"]
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


def test_unknown_points_payload_is_sorted():
    surf = standard_surface(1, 1)
    line = ParabolicLineBundle(0, {"x3": H, "x1": H, "x2": Fraction(0)})
    bundle = ParabolicBundle(1, 0, {x: trivial_flag(1) for x in ("x3", "x1", "x2")})
    for b in (line, bundle):
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
