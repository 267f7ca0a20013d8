import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs.codec import from_json, to_json
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import (
    LaurentMatrix,
    LocalChart,
    VLineBundle,
    Z2Character,
    _clean_terms,
    _mapped,
    equivariance_check,
    kawasaki_euler,
    laurent_from_json,
    laurent_matrix,
    laurent_to_json,
    orb_to_par_local,
    par_to_orb_local,
    parabolic_line_to_vline,
    pic_v_structure,
    square_root_count,
    square_root_types,
    vline_degree,
    vline_tensor,
    vline_to_parabolic_line,
    z2_character_count,
    z2_character_enumerate,
)
from parhiggs.parbun import ParabolicLineBundle, pardeg
from parhiggs.surface import MarkedPoint, MarkedSurface, standard_surface

F = Fraction


def surface_with_orders(genus, orders):
    return MarkedSurface(genus, tuple(
        MarkedPoint(f"x{i+1}", k) for i, k in enumerate(orders)))


def rand_vline(rng, surf):
    return VLineBundle(rng.randint(-4, 4),
                       {p.label: rng.randrange(p.order) for p in surf.points})


# --------------------------------------------------- degrees and tensor ----

def test_vline_degree_examples():
    surf = standard_surface(0, 2)
    assert vline_degree(VLineBundle(0), surf) == 0
    assert vline_degree(VLineBundle(3, {"x1": 1, "x2": 1}), surf) == 4
    surf2 = standard_surface(2, 3)
    l0 = VLineBundle(1, {x: 1 for x in surf2.labels()})
    assert vline_degree(l0, surf2) == F(5, 2)      # g-1+s/2 at g=2, s=3


def test_vline_degree_validation():
    surf = standard_surface(1, 1)
    with pytest.raises(DomainError):
        vline_degree(VLineBundle(0, {"y9": 1}), surf)
    with pytest.raises(DomainError):
        vline_degree(VLineBundle(0, {"x1": 2}), surf)   # order is 2


@pytest.mark.parametrize("residue", [1.7, "a", True, F(1), 1.0, None])
def test_isotropy_residue_must_be_an_int(residue):
    with pytest.raises(DomainError) as e:
        VLineBundle(0, {"x0": 0, "x1": residue})
    assert e.value.payload() == {"error": "bad_isotropy", "label": "x1",
                                 "residue": residue}


@pytest.mark.parametrize("degree", [1.5, True, F(2), "0", None])
def test_desingularized_degree_must_be_an_int(degree):
    with pytest.raises(DomainError) as e:
        VLineBundle(degree, {"x1": 1})
    assert e.value.payload() == {"error": "bad_degree", "degree": degree}
    # checked after the residues, so their refusals keep their place
    for isotropy, code in ((5, "isotropy_not_mapping"),
                           ({"x1": 0.5}, "bad_isotropy"),
                           ({"x1": -1}, "negative_isotropy")):
        with pytest.raises(DomainError) as e:
            VLineBundle(degree, isotropy)
        assert e.value.code == code


def test_vline_tensor_wrap_rule():
    surf = standard_surface(0, 1)
    one = VLineBundle(0, {"x1": 1})
    assert vline_tensor(one, VLineBundle(0), surf) == one
    assert vline_tensor(one, one, surf) == VLineBundle(1)


def test_vline_degree_additive():
    rng = random.Random(9)
    for _ in range(60):
        surf = surface_with_orders(rng.randint(0, 2),
                                   [rng.randint(2, 5) for _ in range(rng.randint(0, 3))])
        a, b = rand_vline(rng, surf), rand_vline(rng, surf)
        assert vline_degree(vline_tensor(a, b, surf), surf) == \
            vline_degree(a, surf) + vline_degree(b, surf)


# ------------------------------------------------------------ square roots ----

def test_square_root_counts():
    fam = square_root_types(VLineBundle(2), standard_surface(0, 3))
    assert len(fam.types) == 4 and fam.total == 4
    fam = square_root_types(VLineBundle(5), standard_surface(2, 1))
    assert len(fam.types) == 1 and fam.torsion_multiplicity == 16
    assert fam.total == 16
    fam = square_root_types(VLineBundle(-3), standard_surface(1, 2))
    assert len(fam.types) == 2 and fam.total == 8


def test_square_root_edge_cases():
    surf = standard_surface(1, 2)
    assert square_root_types(VLineBundle(0, {"x1": 1}), surf).types == ()
    closed = standard_surface(3, 0)
    assert square_root_types(VLineBundle(4), closed).types == (VLineBundle(2),)
    with pytest.raises(DomainError):
        square_root_types(VLineBundle(3), closed)
    with pytest.raises(DomainError):
        square_root_types(VLineBundle(0), surface_with_orders(1, [2, 3]))


@pytest.mark.parametrize("l,s,needed", [
    (VLineBundle(0), 3, 4),               # 2^(s-1) with every residue 0
    (VLineBundle(1), 1, 1),
    (VLineBundle(0, {"x1": 1}), 2, 0),    # a nonzero residue: no type
    (VLineBundle(4), 0, 1),               # no marked points: one type
])
def test_square_roots_are_counted_before_the_cap(l, s, needed):
    surf = standard_surface(1, s)
    # a cap is at least 1 (bad_cap below that)
    assert len(square_root_types(l, surf, cap=max(needed, 1)).types) == needed
    if needed > 1:
        with pytest.raises(DomainError) as err:
            square_root_types(l, surf, cap=needed - 1)
        assert err.value.payload() == {"error": "enumeration_cap_exceeded",
                                       "needed": needed, "cap": needed - 1}


@pytest.mark.parametrize("l,orders,code", [
    (VLineBundle(0, {"y": 1}), [3], "isotropy_surface_mismatch"),
    (VLineBundle(0, {"x1": 2}), [2, 3], "isotropy_not_reduced"),
    (VLineBundle(1), [2, 3], "orders_not_two"),
    (VLineBundle(0, {"x1": 1}), [3, 2], "orders_not_two"),
    (VLineBundle(3), [], "no_square_root"),
])
def test_square_root_count_refuses_as_square_root_types(l, orders, code):
    surf = surface_with_orders(1, orders)
    for call in (square_root_count, square_root_types):
        with pytest.raises(DomainError) as err:
            call(l, surf)
        assert err.value.code == code


def test_square_root_count_builds_no_type():
    # 2^99 types: building them would not end
    assert square_root_count(VLineBundle(0), standard_surface(2, 100)) == 2 ** 99
    assert square_root_count(VLineBundle(7, {"x5": 1}),
                             standard_surface(0, 100)) == 0


def test_square_roots_square_back():
    rng = random.Random(31)
    for _ in range(40):
        surf = standard_surface(rng.randint(0, 2), rng.randint(0, 4))
        l = VLineBundle(rng.randint(-5, 5))
        if surf.s == 0 and l.desing_degree % 2:
            continue
        fam = square_root_types(l, surf)
        assert len(fam.types) == (2 ** (surf.s - 1) if surf.s else 1)
        for r in fam.types:
            assert vline_tensor(r, r, surf) == l


# -------------------------------------------------------------- characters ----

def test_character_counts():
    assert z2_character_count(standard_surface(1, 3)) == 16
    assert z2_character_count(standard_surface(2, 0)) == 16
    assert z2_character_count(surface_with_orders(1, [2, 3])) == 4


def test_character_enumeration_matches_count():
    for g in range(0, 3):
        for s in range(0, 5):
            surf = standard_surface(g, s)
            chars = z2_character_enumerate(surf)
            assert len(chars) == z2_character_count(surf)
            assert len(set(chars)) == len(chars)
            assert chars == sorted(chars, key=lambda c: (c.ab, c.sigma))
    mixed = surface_with_orders(1, [2, 3, 4])
    chars = z2_character_enumerate(mixed)
    assert len(chars) == z2_character_count(mixed) == 8
    assert all(c.sigma[1] == 0 for c in chars)      # order-3 point stays trivial


def test_character_cap_and_validation():
    with pytest.raises(DomainError) as e:
        z2_character_enumerate(standard_surface(3, 4), cap=100)
    assert e.value.code == "enumeration_cap_exceeded"
    assert e.value.info["needed"] == 512
    with pytest.raises(DomainError):
        Z2Character((0, 1), (1, 0, 0))      # odd sigma parity
    with pytest.raises(DomainError):
        Z2Character((2,), ())


def _mixed_orders():
    """Up to six points, each length in five rotations of the orders 2..6,
    and six even points, the most sigma values."""
    cycle = (2, 3, 4, 5, 6)
    return sorted({tuple(cycle[(start + t) % 5] for t in range(s))
                   for s in range(7) for start in range(5)} | {(2, 4, 6, 2, 4, 6)})


@pytest.mark.parametrize("genus", range(5))
def test_enumerated_characters_equal_checked_ones(genus):
    # the characters are filled in without the constructor's check; each
    # must be the value, repr and hash the checked constructor gives
    for orders in _mixed_orders():
        for c in z2_character_enumerate(surface_with_orders(genus, list(orders))):
            checked = Z2Character(c.ab, c.sigma)
            assert c == checked and repr(c) == repr(checked)
            assert hash(c) == hash(checked)
            assert all(type(v) is int for v in c.ab + c.sigma)


# --------------------------------------------------- Picard group, Euler ----

def test_pic_v_structure_labels():
    assert pic_v_structure(standard_surface(2, 0)).identity_component_label() \
        == "(S^1)^4"
    p = pic_v_structure(standard_surface(1, 3))
    assert p.cyclic_orders == (2, 2, 2)
    assert p.identity_component_label() == "(S^1)^2 x Z_2^2"
    q = pic_v_structure(surface_with_orders(1, [2, 3]))
    assert q.identity_component_label() == "(S^1)^2 x (Z_2 x Z_3)/(1,..,1)"


def test_kawasaki_euler_examples():
    assert kawasaki_euler(VLineBundle(0), standard_surface(1, 0)) == 0
    surf = surface_with_orders(1, [2, 3])
    assert kawasaki_euler(VLineBundle(3, {"x1": 1, "x2": 2}), surf) == 3
    rng = random.Random(12)
    for _ in range(60):
        s2 = surface_with_orders(rng.randint(0, 3),
                                 [rng.randint(2, 6) for _ in range(rng.randint(0, 3))])
        l = rand_vline(rng, s2)
        assert isinstance(kawasaki_euler(l, s2), int)


def test_degree_matches_corresponding_parabolic_line():
    rng = random.Random(4)
    for _ in range(50):
        surf = surface_with_orders(rng.randint(0, 2),
                                   [rng.randint(2, 5) for _ in range(rng.randint(0, 3))])
        l = rand_vline(rng, surf)
        line = vline_to_parabolic_line(l, surf)
        assert pardeg(line, surf) == vline_degree(l, surf)
        assert parabolic_line_to_vline(line, surf) == l


@st.composite
def surfaces_with_vlines(draw):
    surf = surface_with_orders(draw(st.integers(0, 3)),
                               draw(st.lists(st.integers(1, 7), max_size=4)))
    return surf, VLineBundle(draw(st.integers(-6, 6)), {
        p.label: draw(st.integers(0, p.order - 1)) for p in surf.points})


@settings(max_examples=150, deadline=None)
@given(surfaces_with_vlines())
def test_vline_and_parabolic_line_round_trip_with_equal_degree(data):
    surf, l = data
    line = vline_to_parabolic_line(l, surf)
    assert parabolic_line_to_vline(line, surf) == l
    deg = vline_degree(l, surf)
    assert pardeg(line, surf) == deg and type(deg) is Fraction
    again = ParabolicLineBundle(line.degree, dict(line.weight_at))
    assert vline_to_parabolic_line(parabolic_line_to_vline(again, surf), surf) == again


def test_parabolic_line_to_vline_rejects_foreign_weights():
    surf = standard_surface(1, 1)
    with pytest.raises(DomainError) as err:
        parabolic_line_to_vline(ParabolicLineBundle(0, {"x1": F(1, 3)}), surf)
    assert err.value.payload() == {"error": "weight_not_orbifold", "label": "x1",
                                   "weight": F(1, 3), "order": 2}
    # the first point, in the surface's order, whose weight * order is no integer
    surf = surface_with_orders(0, [2, 3, 5])
    line = ParabolicLineBundle(0, {"x3": F(1, 2), "x1": F(1, 2), "x2": F(1, 2)})
    with pytest.raises(DomainError) as err:
        parabolic_line_to_vline(line, surf)
    assert err.value.payload() == {"error": "weight_not_orbifold", "label": "x2",
                                   "weight": F(1, 2), "order": 3}


# ------------------------------------------------- local correspondence ----

def test_local_chart_validation():
    LocalChart(2, (0, 1, 2))
    with pytest.raises(DomainError):
        LocalChart(2, (1, 0))
    with pytest.raises(DomainError):
        LocalChart(2, (0, 3))
    with pytest.raises(DomainError):
        LocalChart(0, (0,))


def test_laurent_matrix_normalization():
    m = laurent_matrix(1, {(0, 0): [(2, F(1)), (2, F(2)), (3, F(0))]},
                       (-1, 8), "dw/w")
    assert m.entries[0][0] == ((2, F(3)),)
    # an int coefficient is exact, and is held as a Fraction
    m = laurent_matrix(1, {(0, 0): [(2, 1), (3, F(1, 2)), (2, F(1, 3))]},
                       (-1, 8), "dw/w")
    assert m.entries[0][0] == ((2, F(4, 3)), (3, F(1, 2)))
    assert all(type(c) is F for _, c in m.entries[0][0])
    with pytest.raises(DomainError):
        laurent_matrix(1, {(0, 0): [(9, F(1))]}, (-1, 8), "dw/w")
    # terms that cancel leave nothing outside the window
    assert laurent_matrix(1, {(0, 0): [(9, F(1)), (9, F(-1))]},
                          (-1, 8), "dw/w").entries == (((),),)
    with pytest.raises(DomainError):
        laurent_matrix(1, {}, (-1, 8), "dx")
    assert laurent_matrix(2, {}, (-1, 8), "dz/z").entries == (((), ()), ((), ()))


@pytest.mark.parametrize("term", [
    (1.7, F(1)), (F(3, 2), F(1)), (F(2), F(1)), ("2", F(1)), (True, F(1)),
    (2, 0.1), (2, 1.0), (2, "x"), (2, None), (2, [1]), (2, "1/0"), (2, True),
], ids=["float-degree", "rational-degree", "fraction-degree", "string-degree",
        "bool-degree", "float-coef", "integral-float-coef", "unreadable-coef",
        "none-coef", "list-coef", "zero-denominator-coef", "bool-coef"])
def test_laurent_matrix_refuses_inexact_terms(term):
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {(0, 0): [(1, F(1)), term]}, (-1, 8), "dw/w")
    assert e.value.payload() == {"error": "bad_term", "degree": term[0],
                                 "coef": term[1]}


def test_laurent_matrix_refuses_an_entry_that_is_no_sequence():
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {(0, 0): 5}, (0, 1), "dw/w")
    assert e.value.payload() == {"error": "entry_not_sequence", "type": "int"}


def test_laurent_matrix_refuses_a_term_that_is_no_pair():
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {(0, 0): [5]}, (0, 1), "dw/w")
    assert e.value.payload() == {"error": "bad_term", "term": 5}


def test_laurent_matrix_refuses_a_term_of_three_parts():
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {(0, 0): [(0, F(1), 3)]}, (0, 1), "dw/w")
    assert e.value.payload() == {"error": "bad_term", "term": (0, F(1), 3)}


@pytest.mark.parametrize("entry", [
    ((3, F(1)), (2, F(1))),          # unsorted
    ((2, F(1)), (2, F(2))),          # duplicate degree
    ((2, F(0)),),                    # zero coefficient
    ((2, 1),),                       # int coefficient
    ((F(2), F(1)),),                 # Fraction degree
    (("2", F(1)),),                  # string degree
    ([2, F(1)],),                    # list-shaped term
    [(2, F(1))],                     # entry given as a list
    ((2, F(1)) for _ in "x"),        # entry given as a generator
])
def test_laurent_constructor_refuses_non_canonical_entries(entry):
    rows = (((), ()), ((), entry))
    with pytest.raises(DomainError) as e:
        LaurentMatrix(2, rows, (-1, 8), "dw/w")
    assert e.value.payload() == {"error": "terms_not_canonical", "entry": [1, 1]}


def test_laurent_rows_given_as_lists_are_stored_as_tuples():
    listed = LaurentMatrix(1, [[((1, F(1)),)]], (-1, 8), "dw/w")
    built = LaurentMatrix(1, ((((1, F(1)),),),), (-1, 8), "dw/w")
    assert listed == built and hash(listed) == hash(built)
    assert type(listed.entries) is tuple and type(listed.entries[0]) is tuple
    with pytest.raises(TypeError):
        listed.entries[0][0] = ((9, F(1)),)


@pytest.mark.parametrize("terms,degree", [
    (((9, F(1)),), 9),
    (((-2, F(1)), (0, F(1))), -2),
    (((0, F(1)), (9, F(1))), 9),
])
def test_laurent_constructor_refuses_terms_outside_window(terms, degree):
    with pytest.raises(DomainError) as e:
        LaurentMatrix(1, ((terms,),), (-1, 8), "dw/w")
    assert e.value.payload() == {"error": "term_outside_window",
                                 "degree": degree, "window": [-1, 8]}


def test_reversed_window_is_reported_before_terms_outside_it():
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {(0, 0): [(9, F(1))]}, (8, -1), "dw/w")
    assert e.value.code == "bad_window"
    with pytest.raises(DomainError) as e:
        LaurentMatrix(1, ((((9, F(1)),),),), (8, -1), "dw/w")
    assert e.value.code == "bad_window"


@pytest.mark.parametrize("window", [
    (-0.5, 3), (F(-1, 2), 3), (True, 3), (-1, 3.0), (-1, F(3)),
])
def test_window_ends_must_be_ints(window):
    psi = laurent_matrix(1, {(0, 0): [(1, F(1))]}, (-1, 8), "dw/w")
    z = laurent_matrix(1, {(0, 0): [(2, F(1))]}, (-1, 8), "dz/z")
    builds = [
        # int(-0.5) == 0 would leave this term at -1 outside its window
        lambda: LaurentMatrix(1, ((((-1, F(1)),),),), window, "dw/w"),
        lambda: laurent_matrix(1, {(0, 0): [(1, F(1))]}, window, "dw/w"),
        lambda: par_to_orb_local(2, (F(0),), psi, window),
        lambda: orb_to_par_local(LocalChart(2, (0,)), z, window),
    ]
    for build in builds:
        with pytest.raises(DomainError) as e:
            build()
        assert e.value.payload() == {"error": "bad_window", "window": list(window)}


OTHER_LENGTHS = [(0, 1, 2), (0,), (), [0, 1, 2]]


def _refuses_window(build, window):
    with pytest.raises(DomainError) as e:
        build(window)
    assert e.value.payload() == {"error": "bad_window", "window": list(window)}


@pytest.mark.parametrize("window", OTHER_LENGTHS)
def test_laurent_matrix_refuses_a_window_of_another_length(window):
    _refuses_window(lambda w: laurent_matrix(1, {}, w, "dw/w"), window)


@pytest.mark.parametrize("window", OTHER_LENGTHS)
def test_laurent_constructor_refuses_a_window_of_another_length(window):
    _refuses_window(lambda w: LaurentMatrix(1, (((),),), w, "dw/w"), window)


@pytest.mark.parametrize("window", OTHER_LENGTHS)
def test_par_to_orb_refuses_a_window_of_another_length(window):
    psi = laurent_matrix(1, {(0, 0): [(1, F(1))]}, (-1, 8), "dw/w")
    _refuses_window(lambda w: par_to_orb_local(2, [F(0)], psi, w), window)


@pytest.mark.parametrize("window", OTHER_LENGTHS)
def test_orb_to_par_refuses_a_window_of_another_length(window):
    z = laurent_matrix(1, {(0, 0): [(2, F(1))]}, (-1, 8), "dz/z")
    _refuses_window(lambda w: orb_to_par_local(LocalChart(2, (0,)), z, w), window)


def test_containers_are_read_after_the_checks_that_came_first():
    psi = laurent_matrix(1, {}, (-1, 8), "dw/w")
    z = laurent_matrix(1, {}, (-1, 8), "dz/z")
    for build, code in (
            (lambda: LaurentMatrix(1, 5, (0, 0), "dt"), "bad_form_flag"),
            (lambda: LaurentMatrix(1, 5, (5, 2), "dw/w"), "bad_window"),
            (lambda: LaurentMatrix(1, 5, (0, 1), "dw/w"), "entries_not_sequence"),
            (lambda: laurent_matrix(True, 5, (0, 1), "dw/w"), "bad_matrix_shape"),
            (lambda: par_to_orb_local(0, 5, psi), "bad_chart_order"),
            (lambda: par_to_orb_local(2, 5, z), "wrong_form"),
            (lambda: par_to_orb_local(2, 5, psi), "weights_not_sequence"),
            (lambda: par_to_orb_local(2, [F(1, 3)], psi, 5),
             "weight_not_in_denominator")):
        with pytest.raises(DomainError) as e:
            build()
        assert e.value.code == code


def test_a_window_that_is_no_sequence_is_refused_by_its_own_rule():
    with pytest.raises(DomainError) as e:
        laurent_matrix(1, {}, 5, "dw/w")
    assert e.value.payload() == {"error": "bad_window", "type": "int"}


def _outcome(build):
    try:
        return build()
    except DomainError as e:
        return e.payload()


def test_laurent_readers_refuse_what_the_constructor_refuses():
    """laurent_matrix and laurent_from_json check the form, window, shape and
    window of the terms without the constructor; they must agree with it."""
    rng = random.Random(2016)
    codes = set()
    for _ in range(400):
        n = rng.randint(0, 3)
        lo = rng.randint(-3, 3)
        window = (lo, lo + rng.randint(-1, 4))
        form = rng.choice(["dw/w", "dz/z", "dw/w", "dx"])
        terms = {}
        for i in range(n):
            for j in range(n):
                if rng.random() < 0.5:
                    terms[i, j] = [(rng.randint(-5, 8), F(rng.randint(-2, 2), 2))
                                   for _ in range(rng.randint(1, 3))]
        rows = [[() for _ in range(n)] for _ in range(n)]
        for (i, j), ts in terms.items():
            acc = {}
            for d, c in ts:
                acc[d] = acc.get(d, 0) + c
            rows[i][j] = tuple(sorted((d, c) for d, c in acc.items() if c))
        rows = tuple(tuple(r) for r in rows)
        want = _outcome(lambda: LaurentMatrix(n, rows, window, form))
        assert _outcome(lambda: laurent_matrix(n, terms, window, form)) == want
        obj = {"m": 2, "form": form, "window": list(window),
               "entries": [[[{"deg": d, "coef": str(c)} for d, c in ts]
                            for ts in row] for row in rows]}
        if n and rng.random() < 0.3:        # a ragged matrix: bad_matrix_shape
            obj["entries"][-1].pop()
            want = _outcome(lambda: LaurentMatrix(
                n, tuple(r[:n - 1] if k == n - 1 else r
                         for k, r in enumerate(rows)), window, form))
        got = _outcome(lambda: laurent_from_json(obj))
        assert got == (want if isinstance(want, dict) else (2, want))
        if isinstance(want, dict):
            codes.add(want["error"])
    assert codes == {"bad_form_flag", "bad_window", "bad_matrix_shape",
                     "term_outside_window"}


def test_laurent_from_json_normalizes_terms():
    obj = {"m": 2, "form": "dz/z", "window": [-1, 16],
           "entries": [[[{"deg": 5, "coef": "1/2"}, {"deg": 3, "coef": 0},
                         {"deg": 5, "coef": "1/2"}, {"deg": 1, "coef": -1}]]]}
    m, mat = laurent_from_json(obj)
    assert m == 2
    assert mat.entries[0][0] == ((1, F(-1)), (5, F(1)))
    assert all(type(c) is Fraction for _, c in mat.entries[0][0])


# laurent_matrix and laurent_from_json keep an entry's terms as given when
# they are canonical and pass them to _clean_terms otherwise.  Either way the
# matrix must be the one _mapped builds from _clean_terms's rows, with every
# term an exact (int, Fraction) tuple.

class _SubFraction(Fraction):
    """Equal to its value, but not the exact type a canonical term holds."""


_FRACS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_COEFS = st.one_of(_FRACS, st.integers(-3, 3), _FRACS.map(_SubFraction))


@st.composite
def _entry_terms(draw, coefs=_COEFS):
    """(degree, coefficient) pairs: canonical, canonical but shuffled, or any
    (repeated degrees, zeros, int and Fraction-subclass coefficients)."""
    kind = draw(st.sampled_from(["canonical", "shuffled", "any"]))
    if kind == "any":
        return draw(st.lists(st.tuples(st.integers(-2, 9), coefs), max_size=5))
    degrees = sorted(draw(st.sets(st.integers(-2, 9), max_size=4)))
    terms = [(d, draw(_FRACS.filter(bool))) for d in degrees]
    return draw(st.permutations(terms)) if kind == "shuffled" else terms


def _from_cleaned(n, entries, window, form):
    """The matrix _mapped builds from each entry's _clean_terms, or its refusal."""
    rows = tuple(tuple(_clean_terms(list(e)) for e in row) for row in entries)
    return _outcome(lambda: _mapped(n, rows, window, form))


def _holds_exact_terms(mat):
    return all(type(t) is tuple and len(t) == 2 and type(t[0]) is int
               and type(t[1]) is Fraction
               for row in mat.entries for e in row for t in e)


_CONTAINERS = [list, tuple, lambda ts: (t for t in ts)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_laurent_matrix_equals_the_matrix_of_cleaned_terms(data):
    n = data.draw(st.integers(1, 3))
    form = data.draw(st.sampled_from(["dw/w", "dz/z"]))
    given_terms, entries = {}, [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if data.draw(st.booleans()):
                continue
            as_term = data.draw(st.sampled_from([tuple, list]))
            terms = [as_term(t) for t in data.draw(_entry_terms())]
            given_terms[i, j] = (data.draw(st.sampled_from(_CONTAINERS)), terms)
            entries[i][j] = terms
    want = _from_cleaned(n, entries, (-1, 8), form)
    got = _outcome(lambda: laurent_matrix(
        n, {ij: wrap(ts) for ij, (wrap, ts) in given_terms.items()}, (-1, 8), form))
    assert got == want and repr(got) == repr(want)
    if isinstance(got, LaurentMatrix):
        assert _holds_exact_terms(got)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_laurent_from_json_equals_the_matrix_of_cleaned_terms(data):
    n = data.draw(st.integers(1, 3))
    form = data.draw(st.sampled_from(["dw/w", "dz/z"]))
    entries = [[data.draw(_entry_terms(st.one_of(_FRACS, st.integers(-3, 3))))
                for _ in range(n)] for _ in range(n)]
    obj = {"m": 3, "form": form, "window": [-1, 8],
           "entries": [[[{"deg": d, "coef": c if type(c) is int else str(c)}
                         for d, c in e] for e in row] for row in entries]}
    want = _from_cleaned(n, entries, (-1, 8), form)
    if isinstance(want, LaurentMatrix):
        want = (3, want)
    got = _outcome(lambda: laurent_from_json(obj))
    assert got == want and repr(got) == repr(want)
    if isinstance(want, tuple):
        assert _holds_exact_terms(got[1])
        # the writer's output is canonical, and read back as it was written
        again = laurent_from_json(laurent_to_json(got[1], 3))
        assert again == got and repr(again) == repr(got)
        assert _holds_exact_terms(again[1])


def test_terms_not_held_as_given_are_cleaned():
    # a list-shaped term is held as a tuple
    mat = laurent_matrix(1, {(0, 0): [[2, F(1)]]}, (-1, 8), "dw/w")
    assert mat.entries[0][0] == ((2, F(1)),)
    assert type(mat.entries[0][0][0]) is tuple
    # a generator of unsorted terms is read once, then sorted
    mat = laurent_matrix(1, {(0, 0): ((d, F(1)) for d in (3, 2))}, (-1, 8), "dw/w")
    assert mat.entries[0][0] == ((2, F(1)), (3, F(1)))


_GOOD_JSON = {"m": 2, "form": "dz/z", "window": [-1, 16],
              "entries": [[[{"deg": 1, "coef": "1/2"}]]]}


def _with(**changes):
    return {**_GOOD_JSON, **changes}


def _one_term(term):
    return _with(entries=[[[term]]])


@pytest.mark.parametrize("obj,at,expected", [
    ({"m": 2}, "$", "an object with key 'entries'"),
    ({k: v for k, v in _GOOD_JSON.items() if k != "m"}, "$", "an object with key 'm'"),
    ([], "$", "an object"),
    (_with(x=1), "$", "an object with keys among entries, form, m, window"),
    (_with(entries={}), "$.entries", "a list"),
    (_with(entries=[5]), "$.entries", "a list"),
    (_with(entries=[[5]]), "$.entries", "a list"),
    (_one_term({"deg": 1}), "$.entries", "an object with key 'coef'"),
    (_one_term({"coef": "1"}), "$.entries", "an object with key 'deg'"),
    (_one_term([1, "1"]), "$.entries", "an object"),
    (_one_term({"deg": 1, "coef": "1", "x": 0}), "$.entries",
     "an object with keys among coef, deg"),
    (_one_term({"deg": "1", "coef": "1"}), "$.entries.deg", "an integer"),
    (_one_term({"deg": True, "coef": "1"}), "$.entries.deg", "an integer"),
    (_one_term({"deg": 1, "coef": 0.5}), "$.entries.coef", 'a rational "p/q"'),
    (_with(window=[-1]), "$.window", "a list of 2"),
    (_with(window=[-1, "16"]), "$.window", "an integer"),
    (_with(form=3), "$.form", "a string"),
    (_with(m="2"), "$.m", "an integer"),
])
def test_laurent_from_json_refuses_malformed_input(obj, at, expected):
    with pytest.raises(DomainError) as e:
        laurent_from_json(obj)
    assert e.value.payload() == {"error": "bad_json", "at": at, "expected": expected}


@pytest.mark.parametrize("m", [0, -3])
def test_laurent_json_refuses_a_chart_order_below_one(m):
    mat = laurent_matrix(1, {(0, 0): [(1, Fraction(1, 2))]}, (-1, 16), "dz/z")
    with pytest.raises(DomainError) as e:
        laurent_to_json(mat, m)
    assert e.value.payload() == {"error": "bad_chart_order", "m": m}
    with pytest.raises(DomainError) as e:
        laurent_from_json(_with(m=m))
    assert e.value.payload() == {"error": "bad_chart_order", "m": m}
    # refused after the JSON shape is read, and before the matrix's frame
    with pytest.raises(DomainError) as e:
        laurent_from_json(_with(m=m, x=1))
    assert e.value.code == "bad_json"
    with pytest.raises(DomainError) as e:
        laurent_from_json(_with(m=m, form="dx"))
    assert e.value.payload() == {"error": "bad_chart_order", "m": m}


def test_laurent_from_json_checks_shape_before_the_matrix():
    # a bad m is refused before the form the matrix would refuse
    with pytest.raises(DomainError) as e:
        laurent_from_json(_with(form="dx", m=None))
    assert e.value.payload()["at"] == "$.m"
    with pytest.raises(DomainError) as e:
        laurent_from_json(_with(form="dx"))
    assert e.value.payload() == {"error": "bad_form_flag", "form": "dx"}


def test_forward_worked_example():
    psi = laurent_matrix(2, {(1, 0): [(1, F(1))]}, (-1, 8), "dw/w")
    chart, up = par_to_orb_local(2, (F(0), F(1, 2)), psi)
    assert chart == LocalChart(2, (0, 1))
    assert up.form == "dz/z" and up.window == (-1, 16)
    assert up.entries[1][0] == ((3, F(2)),)
    assert up.entries[0][1] == ()
    weights, back = orb_to_par_local(chart, up)
    assert weights == (F(0), F(1, 2))
    assert back == psi


def test_forward_scalar_factor():
    psi = laurent_matrix(1, {(0, 0): [(0, F(5)), (2, F(-1, 3))]}, (-1, 8), "dw/w")
    _, up = par_to_orb_local(3, (F(1, 3),), psi)
    assert up.entries[0][0] == ((0, F(15)), (6, F(-1)))


def test_forward_rejects_bad_inputs():
    psi = laurent_matrix(2, {(0, 1): [(1, F(1))]}, (-1, 8), "dw/w")
    with pytest.raises(DomainError) as e:
        par_to_orb_local(2, (F(0), F(1, 2)), psi)       # upper entry forbidden
    assert e.value.code == "filtration_violation"
    zero = laurent_matrix(1, {}, (-1, 8), "dw/w")
    with pytest.raises(DomainError):
        par_to_orb_local(2, (F(1, 3),), zero)           # denominator mismatch
    with pytest.raises(DomainError):
        par_to_orb_local(2, (F(0),), laurent_matrix(1, {}, (-1, 8), "dz/z"))


def test_equivariance_check():
    chart = LocalChart(2, (0, 1))
    good = laurent_matrix(2, {(1, 0): [(3, F(1))]}, (-1, 16), "dz/z")
    assert equivariance_check(good, chart)
    bad_power = laurent_matrix(2, {(1, 0): [(2, F(1))]}, (-1, 16), "dz/z")
    assert not equivariance_check(bad_power, chart)
    upper = laurent_matrix(2, {(0, 1): [(1, F(1))]}, (-1, 16), "dz/z")
    assert not equivariance_check(upper, chart)
    flat = LocalChart(1, (0, 0))
    assert equivariance_check(
        laurent_matrix(2, {(1, 0): [(0, F(2))], (0, 0): [(5, F(1))]},
                       (-1, 8), "dz/z"), flat)
    with pytest.raises(DomainError):
        orb_to_par_local(chart, bad_power)


def rand_par_matrix(rng, n, m):
    ks = sorted(rng.randrange(m) for _ in range(n))
    terms = {}
    for i in range(n):
        for j in range(n):
            if ks[i] >= ks[j] and rng.random() < 0.5:
                degs = rng.sample(range(0, 7), rng.randint(1, 3))
                terms[(i, j)] = [(d, F(rng.randint(-5, 5), rng.randint(1, 3)))
                                 for d in degs]
    weights = tuple(F(k, m) for k in ks)
    return weights, laurent_matrix(n, terms, (-1, 8), "dw/w")


def rand_orb_matrix(rng, chart):
    n, m, k = chart.n, chart.m, chart.exponents
    terms = {}
    for i in range(n):
        for j in range(n):
            if k[i] >= k[j] and rng.random() < 0.5:
                ts = rng.sample(range(0, 7), rng.randint(1, 3))
                terms[(i, j)] = [(m * t + k[i] - k[j],
                                  F(rng.randint(-5, 5), rng.randint(1, 3)))
                                 for t in ts]
    return laurent_matrix(len(k), terms, (-1, 8 * m), "dz/z")


def test_round_trip_both_directions():
    rng = random.Random(2718)
    for n in range(1, 5):
        for m in (2, 3, 4):
            for _ in range(40):
                weights, psi = rand_par_matrix(rng, n, m)
                chart, up = par_to_orb_local(m, weights, psi)
                assert equivariance_check(up, chart)
                w2, back = orb_to_par_local(chart, up)
                assert w2 == weights and back == psi

                ks = tuple(sorted(rng.randrange(m) for _ in range(n)))
                chart = LocalChart(m, ks)
                mat = rand_orb_matrix(rng, chart)
                weights, down = orb_to_par_local(chart, mat)
                chart2, up2 = par_to_orb_local(m, weights, down)
                assert chart2 == chart and up2 == mat


def _rebuilt(mat):
    terms = {(i, j): mat.entries[i][j] for i in range(mat.n) for j in range(mat.n)}
    return laurent_matrix(mat.n, terms, mat.window, mat.form)


def _grouped(triples):
    terms = {}
    for ij, d, c in triples:
        terms.setdefault(ij, []).append((d, c))
    return terms


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_local_maps_return_canonical_matrices(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    ks = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    lower = st.sampled_from([(i, j) for i in range(n) for j in range(n)
                             if ks[i] >= ks[j]])
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    w_terms = _grouped(data.draw(st.lists(
        st.tuples(lower, st.integers(-1, 8), coefs), max_size=12)))
    psi = laurent_matrix(n, w_terms, (-1, 8), "dw/w")
    chart, up = par_to_orb_local(m, tuple(F(k, m) for k in ks), psi)
    # repr also tells an int coefficient from an equal Fraction
    assert repr(_rebuilt(up)) == repr(up)

    z_terms = _grouped(((i, j), m * t + ks[i] - ks[j], c) for (i, j), t, c in
                       data.draw(st.lists(st.tuples(lower, st.integers(0, 7), coefs),
                                          max_size=12)))
    z = laurent_matrix(n, z_terms, (-1, 8 * m), "dz/z")
    _, down = orb_to_par_local(chart, z)
    assert repr(_rebuilt(down)) == repr(down)


def test_laurent_json_round_trip():
    rng = random.Random(6)
    _, psi = rand_par_matrix(rng, 3, 2)
    assert laurent_from_json(laurent_to_json(psi, 2)) == (2, psi)
    l = VLineBundle(-2, {"x1": 1, "x3": 2})
    assert from_json(VLineBundle, to_json(l)) == l


@pytest.mark.parametrize("exponents", [(1.5,), (0, True), (0, F(1)), (0, 1.0)],
                         ids=repr)
def test_chart_exponents_must_be_ints(exponents):
    with pytest.raises(DomainError) as err:
        LocalChart(2, exponents)
    assert err.value.payload() == {"error": "exponent_out_of_range",
                                   "exponents": list(exponents), "m": 2}


def test_negative_residue_and_entry_out_of_range_are_refused():
    with pytest.raises(DomainError) as err:
        VLineBundle(0, {"x1": -1, "x2": 0})
    assert err.value.payload() == {"error": "negative_isotropy",
                                   "isotropy": {"x1": -1}}
    with pytest.raises(DomainError) as err:
        laurent_matrix(2, {(5, 0): [(0, F(1))]}, (-1, 8), "dw/w")
    assert err.value.payload() == {"error": "entry_out_of_range",
                                   "entry": [5, 0], "n": 2}

