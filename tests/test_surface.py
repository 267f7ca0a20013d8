import pytest

from parhiggs.codec import from_json, to_json
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
from parhiggs.stability import hitchin_model, milnor_wood_bound
from parhiggs.surface import (
    MarkedPoint,
    MarkedSurface,
    deg_kd,
    h0_twisted_power,
    require_hyperbolic,
    standard_surface,
)


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


def test_surface_validation():
    with pytest.raises(DomainError):
        MarkedSurface(1, (MarkedPoint("x"), MarkedPoint("x")))
    with pytest.raises(DomainError):
        MarkedPoint("x", 0)


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
