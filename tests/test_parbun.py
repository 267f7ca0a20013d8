import random
from fractions import Fraction

import pytest

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
