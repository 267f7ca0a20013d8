from fractions import Fraction

import pytest

from parhiggs.codec import from_json, to_json
from parhiggs.components import (
    CountMode,
    count_components,
    emit_tables,
    enumerate_invariants_sp,
    s1_reduction_report,
    sp2nr,
    split_group,
    strubel_count,
    teichmuller_count,
)
from parhiggs.dimension import (
    complex_group_data,
    dim_complex_group,
    dim_parabolic_gl,
    dim_strongly_parabolic_gl,
    lie_catalog,
    sl_kr_parabolic_dimension,
    teichmuller_dimension,
)
from parhiggs.exact_core import DomainError
from parhiggs.stability import (
    general_mw_interval,
    hitchin_model,
    hitchin_sp_triple,
    milnor_wood_bound,
)
from parhiggs.surface import (
    MarkedPoint,
    MarkedSurface,
    _standard_surface,
    deg_kd,
    h0_twisted_power,
    require_hyperbolic,
    standard_surface,
)
from parhiggs.vcoh import v_cohomology_ranks


def test_deg_kd():
    assert deg_kd(standard_surface(2, 1)) == 3
    assert deg_kd(standard_surface(1, 0)) == 0
    assert deg_kd(standard_surface(0, 5)) == 3


def test_require_hyperbolic():
    require_hyperbolic(standard_surface(0, 3))
    require_hyperbolic(standard_surface(2, 0))
    with pytest.raises(DomainError) as err:
        require_hyperbolic(standard_surface(1, 0))
    assert err.value.payload() == {"error": "not_hyperbolic", "g": 1, "s": 0}


def test_h0_twisted_power_values():
    assert h0_twisted_power(standard_surface(2, 1), 1) == 4
    assert h0_twisted_power(standard_surface(2, 0), 1) == 3
    assert h0_twisted_power(standard_surface(1, 2), 2) == 4


def test_h0_twisted_power_monotone_and_errors():
    for g, s in [(2, 1), (0, 3), (1, 2), (3, 4)]:
        surf = standard_surface(g, s)
        vals = [h0_twisted_power(surf, m) for m in range(1, 6)]
        assert vals == sorted(vals) and len(set(vals)) == len(vals)
    with pytest.raises(DomainError):
        h0_twisted_power(standard_surface(2, 1), 0)
    with pytest.raises(DomainError):
        h0_twisted_power(standard_surface(1, 0), 1)
    for m in (1.5, 2.0, True):
        with pytest.raises(DomainError) as err:
            h0_twisted_power(standard_surface(2, 1), m)
        assert err.value.payload() == {"error": "bad_twist_power", "m": m}


def test_surface_validation():
    with pytest.raises(DomainError):
        MarkedSurface(1, (MarkedPoint("x"), MarkedPoint("x")))
    with pytest.raises(DomainError):
        MarkedPoint("x", 0)


@pytest.mark.parametrize("points,index,kind", [
    (["x"], 0, "str"),
    ((MarkedPoint("x"), ("y", 2)), 1, "tuple"),
    ((MarkedPoint("x"), None), 1, "NoneType"),
])
def test_a_point_that_is_not_a_marked_point_is_refused(points, index, kind):
    with pytest.raises(DomainError) as err:
        MarkedSurface(1, points)
    assert err.value.payload() == {"error": "point_not_marked_point",
                                   "index": index, "type": kind}
    # the genus is read first, and keeps its code
    with pytest.raises(DomainError) as err:
        MarkedSurface(-1, points)
    assert err.value.code == "bad_genus"


def test_points_given_as_a_list_are_held_as_a_tuple():
    surf = MarkedSurface(1, [MarkedPoint("x"), MarkedPoint("y", 3)])
    assert surf.points == (MarkedPoint("x"), MarkedPoint("y", 3))
    assert type(surf.points) is tuple
    same = MarkedSurface(1, (MarkedPoint("x"), MarkedPoint("y", 3)))
    assert surf == same and hash(surf) == hash(same)


@pytest.mark.parametrize("call,payload", [
    (lambda: standard_surface(1.5, 1), {"error": "bad_genus", "genus": 1.5}),
    (lambda: standard_surface(True, 1), {"error": "bad_genus", "genus": True}),
    (lambda: MarkedSurface(2.0), {"error": "bad_genus", "genus": 2.0}),
    (lambda: MarkedSurface(Fraction(2)), {"error": "bad_genus", "genus": 2}),
    (lambda: milnor_wood_bound(2, 1.5, 1), {"error": "bad_genus", "genus": 1.5}),
    (lambda: dim_parabolic_gl(2, 1.5, 1), {"error": "bad_genus", "genus": 1.5}),
    (lambda: MarkedPoint("x1", 2.5),
     {"error": "bad_isotropy_order", "label": "x1", "order": 2.5}),
    (lambda: MarkedPoint("x1", True),
     {"error": "bad_isotropy_order", "label": "x1", "order": True}),
    (lambda: MarkedPoint("x1", Fraction(3)),
     {"error": "bad_isotropy_order", "label": "x1", "order": 3}),
], ids=["std-1.5", "std-True", "surface-2.0", "surface-Fraction",
        "mw-1.5", "dim-1.5", "order-2.5", "order-True", "order-Fraction"])
def test_genus_and_order_must_be_ints(call, payload):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.payload() == payload


@pytest.mark.parametrize("call,payload", [
    (lambda: standard_surface(1, 1.5), {"error": "bad_marked_points", "s": 1.5}),
    (lambda: standard_surface(1, True), {"error": "bad_marked_points", "s": True}),
    (lambda: hitchin_model(2.5, 2, 1), {"error": "bad_hitchin_rank", "k": 2.5}),
    (lambda: hitchin_model(3.0, 2, 1), {"error": "bad_hitchin_rank", "k": 3.0}),
    (lambda: hitchin_sp_triple(4.0, 2, 1),
     {"error": "bad_sp_hitchin_rank", "k": 4.0}),
    (lambda: milnor_wood_bound(1.5, 2, 1), {"error": "bad_rank", "n": 1.5}),
    (lambda: milnor_wood_bound(True, 2, 1), {"error": "bad_rank", "n": True}),
    (lambda: complex_group_data("G", 1.0), {"error": "bad_lie_data", "name": "G"}),
    (lambda: complex_group_data("G", True), {"error": "bad_lie_data", "name": "G"}),
], ids=["std-s-1.5", "std-s-True", "hitchin-2.5", "hitchin-3.0", "sp-hitchin-4.0",
        "mw-n-1.5", "mw-n-True", "complex-1.0", "complex-True"])
def test_point_counts_and_ranks_must_be_ints(call, payload):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.payload() == payload


# Every public function that takes a genus g and a marked-point count s, as
# a call at (g, s).  Each reads both through standard_surface.
GS_CALLS = {
    "standard_surface": standard_surface,
    "count_components": lambda g, s: count_components(sp2nr(2), g, s,
                                                      CountMode.max_union()),
    "enumerate_invariants_sp": lambda g, s: enumerate_invariants_sp(
        2, g, s, CountMode.max_union()),
    "teichmuller_count": lambda g, s: teichmuller_count(split_group("SL(3,R)"),
                                                        g, s),
    "strubel_count": strubel_count,
    "emit_tables": emit_tables,
    "dim_parabolic_gl": lambda g, s: dim_parabolic_gl(2, g, s),
    "dim_strongly_parabolic_gl": lambda g, s: dim_strongly_parabolic_gl(
        2, g, s, [(1, 1)]),
    "dim_complex_group": lambda g, s: dim_complex_group(
        complex_group_data("G", 3), g, s),
    "teichmuller_dimension": lambda g, s: teichmuller_dimension(
        lie_catalog("Sp(4,R)"), g, s),
    "sl_kr_parabolic_dimension": lambda g, s: sl_kr_parabolic_dimension(2, g, s),
    "milnor_wood_bound": lambda g, s: milnor_wood_bound(2, g, s),
    "general_mw_interval": lambda g, s: general_mw_interval(1, 1, g, s),
    "hitchin_model": lambda g, s: hitchin_model(2, g, s),
    "hitchin_sp_triple": lambda g, s: hitchin_sp_triple(4, g, s),
    "v_cohomology_ranks": lambda g, s: v_cohomology_ranks(g, s, "order2"),
    # takes g only; s is 1
    "s1_reduction_report": lambda g, s: s1_reduction_report(sp2nr(2), g),
}
GS_PROBES = [((1.5, 1), {"error": "bad_genus", "genus": 1.5}),
             ((True, 1), {"error": "bad_genus", "genus": True}),
             ((2, 1.5), {"error": "bad_marked_points", "s": 1.5}),
             ((2, True), {"error": "bad_marked_points", "s": True}),
             (([1], 1), {"error": "bad_genus", "genus": [1]}),
             ((None, 1), {"error": "bad_genus", "genus": None}),
             ((2, [1]), {"error": "bad_marked_points", "s": [1]}),
             ((2, None), {"error": "bad_marked_points", "s": None})]
GS_ROWS = [(name, gs, payload) for name in GS_CALLS for gs, payload in GS_PROBES
           if name != "s1_reduction_report" or gs[0] != 2]


@pytest.mark.parametrize("name,gs,payload", GS_ROWS,
                         ids=[f"{name}-{gs[0]!r}-{gs[1]!r}" for name, gs, _ in GS_ROWS])
def test_gs_sweep_refuses_a_float_or_bool_genus_or_point_count(name, gs, payload):
    with pytest.raises(DomainError) as err:
        GS_CALLS[name](*gs)
    assert err.value.payload() == payload


@pytest.mark.parametrize("label", [1, None, ("x",), b"x1"], ids=repr)
def test_point_label_must_be_a_string(label):
    with pytest.raises(DomainError) as err:
        MarkedPoint(label)
    assert err.value.payload() == {"error": "bad_label", "label": label}


def test_surface_json_round_trip():
    surf = MarkedSurface(2, (MarkedPoint("p", 2), MarkedPoint("q", 3)))
    assert from_json(MarkedSurface, to_json(surf)) == surf
    assert to_json(surf) == {
        "genus": 2,
        "points": [{"label": "p", "order": 2}, {"label": "q", "order": 3}],
    }


def test_negative_marked_point_count_is_refused():
    with pytest.raises(DomainError) as err:
        standard_surface(2, -1)
    assert err.value.payload() == {"error": "bad_marked_points", "s": -1}
    for call in (lambda: milnor_wood_bound(2, 2, -1),
                 lambda: hitchin_model(2, 2, -1),
                 lambda: teichmuller_dimension(lie_catalog("Sp(4,R)"), 2, -1),
                 lambda: dim_parabolic_gl(2, 2, -1),
                 lambda: dim_complex_group(complex_group_data("G", 3), 2, -1),
                 lambda: sl_kr_parabolic_dimension(2, 2, -1)):
        with pytest.raises(DomainError) as err:
            call()
        assert err.value.code == "bad_marked_points"
    # the surface is checked before the per-point multiplicity tuples
    with pytest.raises(DomainError) as err:
        dim_strongly_parabolic_gl(2, 2, -1, [])
    assert err.value.payload() == {"error": "bad_marked_points", "s": -1}


def test_stored_labels_are_outside_equality_hash_repr_and_json():
    surf = MarkedSurface(2, (MarkedPoint("p", 2), MarkedPoint("q", 3)))
    same = MarkedSurface(2, (MarkedPoint("p", 2), MarkedPoint("q", 3)))
    object.__setattr__(same, "_labels", ("r",))
    object.__setattr__(same, "_label_set", frozenset({"r"}))
    assert surf.labels() == ("p", "q")
    assert surf.labels() is surf.labels()
    assert surf._label_set == frozenset({"p", "q"})
    assert [name for name, _ in surf._value_fields] == ["genus", "points"]
    assert surf == same and hash(surf) == hash(same)
    assert repr(surf) == repr(same) == (
        "MarkedSurface(genus=2, points=(MarkedPoint(label='p', order=2), "
        "MarkedPoint(label='q', order=3)))")
    assert to_json(surf) == to_json(same)
    back = from_json(MarkedSurface, to_json(surf))
    assert back.labels() == ("p", "q") and back._label_set == {"p", "q"}
    assert standard_surface(1, 0).labels() == ()
    assert standard_surface(1, 0)._label_set == frozenset()
    assert standard_surface(0, 3).labels() == ("x1", "x2", "x3")
    assert standard_surface(0, 3)._label_set == {"x1", "x2", "x3"}


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except DomainError as err:
        return "error", err.payload()


def test_standard_surface_cache_matches_the_plain_function():
    # the cache sits behind the argument checks, which refuse s before g
    plain = _standard_surface.__wrapped__
    for g in range(-1, 5):
        for s in range(-1, 6):
            first = _outcome(standard_surface, g, s)
            again = _outcome(standard_surface, g, s)
            assert first == again
            if s < 0:
                assert first == ("error", {"error": "bad_marked_points", "s": s})
            elif g < 0:
                assert first == ("error", {"error": "bad_genus", "genus": g})
            else:
                assert first[1] is again[1]
                assert first[1] == plain(g, s)
                assert first[1].labels() == plain(g, s).labels()
    # checked before the cache: True is not read back as the cached genus 1
    standard_surface(1, 1)
    assert _outcome(standard_surface, True, 1) == ("error", {"error": "bad_genus",
                                                             "genus": True})
    assert _standard_surface.cache_info().maxsize == 128
