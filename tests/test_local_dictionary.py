"""The local dictionary's refusals and its exact output, pinned.

The refusal table holds one direct call per row of ``par_to_orb_local``,
``orb_to_par_local``, ``_weights_to_exponents`` or ``equivariance_check``
and what it must give: a value, or a ``DomainError`` with its code and full
payload.  The rows pin which rule wins when an input breaks several.

No CLI subcommand reaches the local maps, so the byte-identity corpus does
not cover them; ``test_round_trips_are_byte_identical`` pins a sha256 over
the reprs and JSON text of seeded round trips both ways instead.
"""

import hashlib
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parhiggs.exact_core import DomainError
from parhiggs.orbifold import (
    LaurentMatrix,
    LocalChart,
    _weights_to_exponents,
    equivariance_check,
    laurent_from_json,
    laurent_matrix,
    laurent_to_json,
    orb_to_par_local,
    par_to_orb_local,
)


def _w(n, terms=None):
    return laurent_matrix(n, terms or {}, (-1, 8), "dw/w")


def _z(n, terms=None, window=(-1, 16)):
    return laurent_matrix(n, terms or {}, window, "dz/z")


def _err(code, **info):
    return {"error": code, **info}


P2O_ROWS = [
    # chart order first, then the form, the size, the weights, the entries
    ((0, (F(0),), _w(1)), _err("bad_chart_order", m=0)),
    ((-2, (F(0),), _z(1)), _err("bad_chart_order", m=-2)),
    ((2, (F(0),), _z(1)), _err("wrong_form", form="dz/z", expected="dw/w")),
    ((2, (F(0), F(3, 2)), _z(1)), _err("wrong_form", form="dz/z", expected="dw/w")),
    ((2, (F(0),), _w(2)), _err("size_mismatch", matrix=2, weights=1)),
    ((2, (F(5), F(0), F(0)), _w(2)), _err("size_mismatch", matrix=2, weights=3)),
    # each weight in turn: its range, then its denominator
    ((2, (F(1),), _w(1)), _err("weight_out_of_range", weight=F(1))),
    ((2, (F(-1, 2),), _w(1)), _err("weight_out_of_range", weight=F(-1, 2))),
    ((2, (1,), _w(1)), _err("weight_out_of_range", weight=F(1))),
    ((2, (F(1, 3),), _w(1)), _err("weight_not_in_denominator", weight=F(1, 3), m=2)),
    ((6, (F(1, 4),), _w(1)), _err("weight_not_in_denominator", weight=F(1, 4), m=6)),
    ((2, (F(1, 3), F(2)), _w(2)),
     _err("weight_not_in_denominator", weight=F(1, 3), m=2)),
    ((2, (F(2), F(1, 3)), _w(2)), _err("weight_out_of_range", weight=F(2))),
    # the order of the weights only after every weight has passed
    ((2, (F(1, 2), F(0)), _w(2)),
     _err("weights_not_nondecreasing", weights=[F(1, 2), F(0)])),
    ((4, (F(1, 2), 0, F(1, 3)), _w(3)),
     _err("weight_not_in_denominator", weight=F(1, 3), m=4)),
    ((4, (F(3, 4), 0), _w(2)),
     _err("weights_not_nondecreasing", weights=[F(3, 4), F(0)])),
    ((2, (F(1, 2), F(0)), _w(2, {(0, 1): [(1, F(1))]})),
     _err("weights_not_nondecreasing", weights=[F(1, 2), F(0)])),
    # the first entry above the filtration, row by row
    ((2, (F(0), F(1, 2)), _w(2, {(0, 1): [(1, F(1))]})),
     _err("filtration_violation", entry=[0, 1])),
    ((3, (F(0), F(1, 3), F(2, 3)),
      _w(3, {(1, 2): [(0, F(1))], (0, 2): [(4, F(-1, 2))]})),
     _err("filtration_violation", entry=[0, 2])),
    ((3, (F(0), F(1, 3), F(2, 3)), _w(3, {(1, 2): [(0, F(1))]})),
     _err("filtration_violation", entry=[1, 2])),
    # an empty matrix has no chart; a reversed window is the matrix's
    ((2, (), _w(0)), _err("exponent_out_of_range", exponents=[], m=2)),
    ((2, (F(0),), _w(1, {(0, 0): [(1, F(1))]}), (5, 2)),
     _err("bad_window", window=[5, 2])),
    ((2, (F(0), F(1, 2)), _w(2, {(0, 1): [(1, F(1))]}), (5, 2)),
     _err("filtration_violation", entry=[0, 1])),
]


@pytest.mark.parametrize("args,want", P2O_ROWS)
def test_par_to_orb_refusals(args, want):
    with pytest.raises(DomainError) as e:
        par_to_orb_local(*args)
    assert e.value.payload() == want


NOT_EQUIVARIANT = _err("not_equivariant")

O2P_ROWS = [
    # the form first, then an exponent at the order, the size, equivariance
    ((LocalChart(2, (0, 1)), _w(2)), _err("wrong_form", form="dw/w", expected="dz/z")),
    ((LocalChart(2, (0, 2)), _w(3)), _err("wrong_form", form="dw/w", expected="dz/z")),
    ((LocalChart(2, (0, 2)), _z(2)), _err("exponent_equals_order", m=2)),
    ((LocalChart(1, (1,)), _z(3)), _err("exponent_equals_order", m=1)),
    ((LocalChart(2, (0, 1)), _z(3)), _err("size_mismatch", matrix=3, chart=2)),
    ((LocalChart(2, (0, 1)), _z(1)), _err("size_mismatch", matrix=1, chart=2)),
    # off the residue k_i - k_j mod m, on and below the diagonal
    ((LocalChart(2, (0, 1)), _z(2, {(1, 0): [(2, F(1))]})), NOT_EQUIVARIANT),
    ((LocalChart(3, (0,)), _z(1, {(0, 0): [(3, F(1)), (4, F(1))]})),
     NOT_EQUIVARIANT),
    ((LocalChart(3, (1, 2)), _z(2, {(1, 0): [(-1, F(1))]})), NOT_EQUIVARIANT),
    # any term at k_i < k_j, on the residue or not
    ((LocalChart(2, (0, 1)), _z(2, {(0, 1): [(1, F(1))]})), NOT_EQUIVARIANT),
    ((LocalChart(2, (0, 1)), _z(2, {(0, 1): [(-1, F(1))]})), NOT_EQUIVARIANT),
    ((LocalChart(4, (0, 1, 3)), _z(3, {(1, 2): [(2, F(1))]})), NOT_EQUIVARIANT),
    # equivariance before the window
    ((LocalChart(2, (0, 1)), _z(2, {(1, 0): [(2, F(1))]}), (5, 2)),
     NOT_EQUIVARIANT),
    ((LocalChart(2, (0, 1)), _z(2, {(1, 0): [(3, F(1))]}), (5, 2)),
     _err("bad_window", window=[5, 2])),
]


@pytest.mark.parametrize("args,want", O2P_ROWS)
def test_orb_to_par_refusals(args, want):
    with pytest.raises(DomainError) as e:
        orb_to_par_local(*args)
    assert e.value.payload() == want


@pytest.mark.parametrize("terms", [None, {(0, 0): [(1, F(1))]}])
def test_local_maps_check_a_reversed_window(terms):
    # the maps build their result without the constructor's per-term check,
    # but still refuse the window the caller gave
    chart, up = par_to_orb_local(2, (F(0),), _w(1, terms))
    with pytest.raises(DomainError) as e:
        par_to_orb_local(2, (F(0),), _w(1, terms), (5, 1))
    assert e.value.payload() == _err("bad_window", window=[5, 1])
    with pytest.raises(DomainError) as e:
        orb_to_par_local(chart, up, (5, 1))
    assert e.value.payload() == _err("bad_window", window=[5, 1])


@pytest.mark.parametrize("window", [("a", 3), (0, "b"), (0.5, 3), (0, True)])
def test_a_window_end_that_is_not_an_int_is_refused_before_any_term(window):
    with pytest.raises(DomainError) as e:
        par_to_orb_local(2, [F(0)], _w(1, {(0, 0): [(1, F(1))]}), window)
    assert e.value.payload() == _err("bad_window", window=list(window))
    with pytest.raises(DomainError) as e:
        orb_to_par_local(LocalChart(2, (0,)), _z(1, {(0, 0): [(2, F(1))]}),
                         window)
    assert e.value.payload() == _err("bad_window", window=list(window))


@pytest.mark.parametrize("m", [F(2), 2.0, True])
@pytest.mark.parametrize("terms", [None, {(0, 0): [(1, F(1))]}])
def test_a_chart_order_that_is_not_an_int_is_refused(m, terms):
    with pytest.raises(DomainError) as e:
        par_to_orb_local(m, (F(0),), _w(1, terms))
    assert e.value.payload() == _err("bad_chart_order", m=m)
    with pytest.raises(DomainError) as e:
        LocalChart(m, (0,))
    assert e.value.payload() == _err("bad_chart_order", m=m)


@pytest.mark.parametrize("m", [F(2), 1.5, True])
def test_the_json_writer_refuses_a_chart_order_that_is_not_an_int(m):
    with pytest.raises(DomainError) as e:
        laurent_to_json(_w(1), m)
    assert e.value.payload() == _err("bad_chart_order", m=m)


@pytest.mark.parametrize("n", [F(1), 1.0, True])
def test_a_matrix_size_that_is_not_an_int_is_refused(n):
    for build in (lambda: laurent_matrix(n, {}, (-1, 8), "dw/w"),
                  lambda: LaurentMatrix(n, (((),),), (-1, 8), "dw/w")):
        with pytest.raises(DomainError) as e:
            build()
        assert e.value.payload() == _err("bad_matrix_shape", n=n)


@pytest.mark.parametrize("args,want", [
    ((2, [F(0), F(1, 2)]), [0, 1]),
    ((6, [F(1, 2), F(2, 3), F(5, 6)]), [3, 4, 5]),
    ((4, [0, "1/4", F(2, 4)]), [0, 1, 2]),
    ((1, []), []),
    ((2, [F(1, 2), F(1, 2)]), [1, 1]),
    ((2, [F(1)]), _err("weight_out_of_range", weight=F(1))),
    ((2, [F(-1, 4)]), _err("weight_out_of_range", weight=F(-1, 4))),
    ((3, [F(1, 2)]), _err("weight_not_in_denominator", weight=F(1, 2), m=3)),
    ((2, [F(1, 2), F(0)]), _err("weights_not_nondecreasing",
                                weights=[F(1, 2), F(0)])),
    ((2, [F(1, 2), 0]), _err("weights_not_nondecreasing",
                             weights=[F(1, 2), F(0)])),
    ((2, [F(1, 2), F(0), F(5, 4)]), _err("weight_out_of_range", weight=F(5, 4))),
])
def test_weights_to_exponents(args, want):
    if isinstance(want, list):
        got = _weights_to_exponents(*args)
        assert got == want and all(type(k) is int for k in got)
        return
    with pytest.raises(DomainError) as e:
        _weights_to_exponents(*args)
    assert e.value.payload() == want


def test_equivariance_check_refuses_a_size_mismatch():
    with pytest.raises(DomainError) as e:
        equivariance_check(_z(3), LocalChart(2, (0, 1)))
    assert e.value.payload() == _err("size_mismatch", matrix=3, chart=2)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orb_to_par_refuses_exactly_what_equivariance_check_rejects(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.sampled_from((1, 2, 3, 4, 6)))
    ks = sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
    chart = LocalChart(m, tuple(ks))
    # every entry, upper ones too, at any degree of the window
    entry = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    degree = st.one_of(st.integers(-1, 8 * m),  # mostly off the residue
                       st.integers(0, 7).map(lambda t: t * m))
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    terms = {}
    for (i, j), d, c in data.draw(st.lists(st.tuples(entry, degree, coef),
                                           max_size=6)):
        # shifted onto the residue k_i - k_j unless the draw says otherwise
        if data.draw(st.booleans()):
            d = m * (d // m) + ks[i] - ks[j]
        terms.setdefault((i, j), []).append((d, c))
    z = laurent_matrix(n, terms, (-2 * m, 9 * m), "dz/z")
    ok = equivariance_check(z, chart)
    try:
        orb_to_par_local(chart, z)
    except DomainError as e:
        assert e.payload() == NOT_EQUIVARIANT
        assert not ok
    else:
        assert ok


# ------------------------------------------------------------ digest ----

# sha256 of the seeded round trips below, as written by the code the
# local-dictionary rewrite started from
ROUND_TRIP_SHA256 = (
    "ed001acc02d5617a5176d7a17e04c938b44a24f3c3500585604b61340c909d68")


def _coef(rng):
    return F(rng.randint(-12, 12), rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 12)))


def _raw(rng, degrees):
    """Unsorted terms with repeats and zero coefficients."""
    return [(rng.choice(degrees), _coef(rng)) for _ in range(rng.randint(1, 4))]


def _round_trips():
    rng = random.Random(14061995)
    for n in range(1, 7):
        for m in (2, 3, 4, 6):
            for _ in range(10):
                ks = sorted(rng.randrange(m) for _ in range(n))
                lower = [(i, j) for i in range(n) for j in range(n)
                         if ks[i] >= ks[j]]
                picked = rng.sample(lower, rng.randint(0, len(lower)))

                # par -> orb -> JSON -> orb -> par
                psi = _w(n, {ij: _raw(rng, range(-1, 9)) for ij in picked})
                window = rng.choice((None, None, (-1, 3 * m), (2, 5 * m)))
                chart, up = par_to_orb_local(m, tuple(F(k, m) for k in ks), psi,
                                             window)
                text = json.dumps(laurent_to_json(up, m))
                m2, up2 = laurent_from_json(json.loads(text))
                yield repr((psi, chart, up, m2, up2)), text
                yield repr(orb_to_par_local(chart, up2)), ""

                # orb -> par -> JSON -> par -> orb
                z = _z(n, {(i, j): _raw(rng, range(ks[i] - ks[j] - m, 8 * m, m))
                           for i, j in picked}, (-m, 8 * m))
                window = rng.choice((None, None, (-1, 3), (1, 5)))
                weights, down = orb_to_par_local(chart, z, window)
                text = json.dumps(laurent_to_json(down, m))
                m2, down2 = laurent_from_json(json.loads(text))
                yield repr((z, weights, down, m2, down2)), text
                yield repr(par_to_orb_local(m2, weights, down2)), ""


def round_trip_digest() -> str:
    h = hashlib.sha256()
    for rep, text in _round_trips():
        h.update(rep.encode())
        h.update(b"\0")
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_round_trips_are_byte_identical():
    assert round_trip_digest() == ROUND_TRIP_SHA256
