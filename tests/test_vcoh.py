import random

import pytest

from parhiggs.exact_core import DomainError
from parhiggs.orbifold import z2_character_count
from parhiggs.surface import standard_surface
from parhiggs.vcoh import (
    MVPieces,
    VCohRanks,
    bz2_disk_ranks,
    mv_ranks,
    v_cohomology_ranks,
)


def test_disk_ranks():
    assert bz2_disk_ranks().astuple() == (1, 1, 1)


def test_mv_surface_gluing():
    for g in range(0, 4):
        for s in range(1, 7):
            p = MVPieces((1, 2 * g + s - 1, 0), (s, s, s), (s, s, 0), (s, s, 0))
            assert mv_ranks(p).astuple() == (1, 2 * g + s - 1, s)


def test_mv_sphere_from_disks():
    p = MVPieces((1, 0, 0), (1, 0, 0), (1, 1, 0), (1, 0, 0))
    assert mv_ranks(p).astuple() == (1, 0, 1)


def test_mv_disjoint_union_adds():
    p = MVPieces((1, 3, 0), (2, 5, 1), (0, 0, 0), (0, 0, 0))
    assert mv_ranks(p).astuple() == (3, 8, 1)


def test_mv_rejects_inconsistent_input():
    with pytest.raises(DomainError):
        mv_ranks(MVPieces((1, 0, 0), (0, 0, 0), (1, 0, 0), (2, 0, 0)))
    with pytest.raises(DomainError) as e:
        mv_ranks(MVPieces((1, 0, 0), (1, 0, 0), (1, 1, 1), (1, 0, 0)))
    assert e.value.code == "mv_inconsistent"      # top map not onto
    with pytest.raises(DomainError):
        MVPieces((1, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(DomainError):
        VCohRanks(1, -1, 0)


def test_mv_euler_characteristic_invariant():
    rng = random.Random(8)
    for _ in range(200):
        a1 = tuple(rng.randint(0, 6) for _ in range(3))
        a2 = tuple(rng.randint(0, 6) for _ in range(3))
        a = tuple(x + y for x, y in zip(a1, a2))
        b = (rng.randint(0, 8), rng.randint(0, 8), rng.randint(0, a[2]))
        rho = (rng.randint(0, min(a[0], b[0])), rng.randint(0, min(a[1], b[1])),
               b[2])
        r = mv_ranks(MVPieces(a1, a2, b, rho))
        chi_a = a[0] - a[1] + a[2]
        chi_b = b[0] - b[1] + b[2]
        assert r.euler() == chi_a - chi_b


def test_surface_modes():
    r, prov = v_cohomology_ranks(2, 3, "order2")
    assert r.astuple() == (1, 6, 3) and prov == "computed"
    r, prov = v_cohomology_ranks(2, 3, "punctured")
    assert r.astuple() == (1, 6, 0) and prov == "computed"
    r, prov = v_cohomology_ranks(1, 4, "odd_order")
    assert r.astuple() == (1, 5, 4) and prov == "as stated (Remark 9.3)"


def test_mode_validation():
    with pytest.raises(DomainError) as e:
        v_cohomology_ranks(2, 3, "order4")
    assert e.value.code == "unsupported_mode"
    with pytest.raises(DomainError):
        v_cohomology_ranks(2, 0, "order2")


def test_h1_matches_character_count():
    for g in range(0, 4):
        for s in range(1, 7):
            r, _ = v_cohomology_ranks(g, s, "order2")
            assert 2 ** r.h1 == z2_character_count(standard_surface(g, s))


@pytest.mark.parametrize("bad", [(1.5, 0, 0), (True, 0, 0), (0, 0, 2.0)], ids=repr)
def test_rank_triples_must_be_ints(bad):
    with pytest.raises(DomainError) as err:
        MVPieces(bad, (0, 0, 0), (0, 0, 0), (0, 0, 0))
    assert err.value.payload() == {"error": "bad_rank_triple", "which": "v1",
                                   "value": list(bad)}
    with pytest.raises(DomainError) as err:
        VCohRanks(*bad)
    assert err.value.payload() == {"error": "bad_rank_triple", "which": "ranks",
                                   "value": list(bad)}


@pytest.mark.parametrize("g,s,payload", [
    ("2", 1, {"error": "bad_genus", "genus": "2"}),
    (2, None, {"error": "bad_marked_points", "s": None}),
    (-1, None, {"error": "bad_marked_points", "s": None}),
    (-1, 1, {"error": "needs_marked_points", "g": -1, "s": 1}),
    (2, 0, {"error": "needs_marked_points", "g": 2, "s": 0}),
    (2, -1, {"error": "needs_marked_points", "g": 2, "s": -1}),
], ids=repr)
def test_surface_arguments_are_refused_with_the_surface_codes(g, s, payload):
    with pytest.raises(DomainError) as err:
        v_cohomology_ranks(g, s, "order2")
    assert err.value.payload() == payload
