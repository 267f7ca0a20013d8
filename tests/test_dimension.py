"""Dimension-formula tests: catalog identities and moduli dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parhiggs.codec import to_json
from parhiggs.dimension import (
    DimReport,
    DimSummand,
    LieGroupData,
    complex_group_data,
    dim_complex_group,
    dim_parabolic_gl,
    dim_strongly_parabolic_gl,
    full_flag_multiplicities,
    lie_catalog,
    sl_kr_parabolic_dimension,
    teichmuller_dimension,
)
from parhiggs.exact_core import DomainError
from parhiggs.surface import h0_twisted_power, standard_surface

HYP_GRID = [(g, s) for g in range(4) for s in range(5) if 2 * g - 2 + s > 0]


# --------------------------------------------------------------------------
# catalog


def test_catalog_entries():
    sl2 = lie_catalog("SL(2,R)")
    assert (sl2.real_dimension, sl2.rank, sl2.exponents) == (3, 1, (1,))
    sp4 = lie_catalog("Sp(4,R)")
    assert (sp4.real_dimension, sp4.rank, sp4.exponents) == (10, 2, (1, 3))
    assert sp4.is_hermitian_tube
    so33 = lie_catalog("SO(3,3)")
    assert (so33.real_dimension, so33.rank, so33.exponents) == (15, 3, (1, 3, 2))
    so43 = lie_catalog("SO(4,3)")
    assert (so43.real_dimension, so43.exponents) == (21, (1, 3, 5))
    assert lie_catalog("SL(4,R)").exponents == (1, 2, 3)
    assert lie_catalog("Sp(6,R)").real_dimension == 21


def test_catalog_identity_exhaustive():
    names = ["SL(2,R)", "SL(3,R)", "SL(4,R)", "SL(5,R)", "SL(6,R)",
             "Sp(2,R)", "Sp(4,R)", "Sp(6,R)", "Sp(8,R)",
             "SO(3,2)", "SO(4,3)", "SO(5,4)",
             "SO(3,3)", "SO(4,4)", "SO(5,5)"]
    for name in names:
        data = lie_catalog(name)
        assert data.is_split
        assert data.real_dimension == data.rank + 2 * sum(data.exponents)


def test_catalog_rejects_unknown_names():
    for bad in ("G2", "SO(2,2)", "SO(5,3)", "Sp(3,R)", "SL(1,R)", "SU(2,2)"):
        with pytest.raises(DomainError) as e:
            lie_catalog(bad)
        assert e.value.payload()["error"] == "unknown_group_name"


def test_lie_data_self_check():
    with pytest.raises(DomainError) as e:
        LieGroupData("fake", real_dimension=4, rank=1, exponents=(1,),
                     is_split=True, is_hermitian_tube=False)
    assert e.value.payload()["error"] == "catalog_identity_violated"
    # PSL(2,R)-type data passes: 3 = 1 + 2*1
    LieGroupData("PSL(2,R)", 3, 1, (1,), is_split=True,
                 is_hermitian_tube=True)


# --------------------------------------------------------------------------
# GL(n,C) parabolic moduli


def test_parabolic_dimension_values():
    assert dim_parabolic_gl(2, 2, 1) == 13
    assert dim_parabolic_gl(1, 2, 0) == 3
    assert dim_parabolic_gl(3, 1, 2) == 19
    with pytest.raises(DomainError):
        dim_parabolic_gl(2, 1, 0)
    with pytest.raises(DomainError):
        dim_parabolic_gl(0, 2, 1)


def test_strongly_parabolic_values():
    assert dim_strongly_parabolic_gl(2, 2, 1,
                                     full_flag_multiplicities(2, 1)) == 12
    assert dim_strongly_parabolic_gl(3, 2, 2,
                                     full_flag_multiplicities(3, 2)) == 32
    # trivial flag: f_x = 0, closed-surface value + 2
    assert dim_strongly_parabolic_gl(2, 3, 2, [(2,), (2,)]) == \
        2 * 2 * 4 + 2
    # s = 0 reduces to the non-parabolic count
    assert dim_strongly_parabolic_gl(2, 2, 0, []) == 2 * 1 * 4 + 2


def test_strongly_parabolic_full_flag_identity():
    for n in range(1, 7):
        for g, s in HYP_GRID:
            value = dim_strongly_parabolic_gl(
                n, g, s, full_flag_multiplicities(n, s))
            assert value == n * n * (2 * g - 2) + s * n * (n - 1) + 2


def test_strongly_parabolic_rejects_bad_multiplicities():
    with pytest.raises(DomainError):
        dim_strongly_parabolic_gl(2, 2, 1, [(1, 2)])  # sums to 3, not 2
    with pytest.raises(DomainError):
        dim_strongly_parabolic_gl(2, 2, 1, [])  # wrong number of points
    with pytest.raises(DomainError):
        dim_strongly_parabolic_gl(2, 2, 1, [(2, 0)])


@pytest.mark.parametrize("steps", [(True, 1), (1.0, 1), (2.0,)], ids=repr)
def test_strongly_parabolic_multiplicities_must_be_ints(steps):
    with pytest.raises(DomainError) as err:
        dim_strongly_parabolic_gl(2, 2, 1, [steps])
    assert err.value.payload() == {"error": "bad_multiplicities", "point": 0,
                                   "steps": steps, "n": 2}


@pytest.mark.parametrize("call,payload", [
    (lambda: LieGroupData("x", 3, 1, (0,), True, False),
     {"error": "bad_exponents", "name": "x", "exponents": (0,)}),
    (lambda: LieGroupData("x", 3, 0, (), False, False, True),
     {"error": "complex_dimension_odd", "name": "x"}),
    (lambda: dim_parabolic_gl(0, 2, 1), {"error": "rank_not_positive", "n": 0}),
    (lambda: dim_strongly_parabolic_gl(0, 2, 1, [()]),
     {"error": "rank_not_positive", "n": 0}),
    (lambda: sl_kr_parabolic_dimension(1, 2, 1),
     {"error": "rank_not_positive", "n": 1}),
    # a rank that is not an exact int, before its lower bound
    (lambda: dim_parabolic_gl(2.5, 2, 1), {"error": "bad_rank", "n": 2.5}),
    (lambda: dim_parabolic_gl(0.5, 2, 1), {"error": "bad_rank", "n": 0.5}),
    (lambda: dim_strongly_parabolic_gl(2.0, 2, 1, [(1, 1)]),
     {"error": "bad_rank", "n": 2.0}),
    (lambda: sl_kr_parabolic_dimension(2.5, 2, 1), {"error": "bad_rank", "n": 2.5}),
    (lambda: sl_kr_parabolic_dimension(True, 2, 1), {"error": "bad_rank", "n": True}),
    (lambda: full_flag_multiplicities(2.5, 1), {"error": "bad_rank", "n": 2.5}),
    (lambda: full_flag_multiplicities(2, True),
     {"error": "bad_marked_points", "s": True}),
    (lambda: full_flag_multiplicities(2, -1), {"error": "bad_marked_points", "s": -1}),
], ids=["bad_exponents", "complex_dimension_odd", "parabolic-rank",
        "strongly-parabolic-rank", "sl_kr-rank", "parabolic-rank-2.5",
        "parabolic-rank-0.5", "strongly-parabolic-rank-2.0", "sl_kr-rank-2.5",
        "sl_kr-rank-True", "full-flag-rank-2.5", "full-flag-points-True",
        "full-flag-points-negative"])
def test_lie_data_and_rank_refusals(call, payload):
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.payload() == payload


# --------------------------------------------------------------------------
# complex groups


def test_complex_group_dimension():
    sl2c = complex_group_data("SL(2,C)", 3)
    report = dim_complex_group(sl2c, 2, 1)
    assert report.complex_dimension == 9
    assert report.real_dimension == 18
    assert dim_complex_group(sl2c, 1, 1).complex_dimension == 3
    # s = 0 matches the non-parabolic count 2(g-1)dim
    assert dim_complex_group(sl2c, 3, 0).complex_dimension == 2 * 2 * 3
    with pytest.raises(DomainError) as e:
        dim_complex_group(lie_catalog("SL(2,R)"), 2, 1)
    assert e.value.payload()["error"] == "not_complex_group"


# --------------------------------------------------------------------------
# Teichmuller components


def test_teichmuller_dimension_psl2_type():
    psl2 = LieGroupData("PSL(2,R)", 3, 1, (1,), is_split=True,
                        is_hermitian_tube=True)
    report = teichmuller_dimension(psl2, 2, 1)
    assert report.real_dimension == 8
    assert report.summands == (DimSummand("exponent_1", 4, 8),)
    assert report.complex_dimension == 4


def test_teichmuller_dimension_nonparabolic_sp6():
    report = teichmuller_dimension(lie_catalog("Sp(6,R)"), 2, 0)
    assert report.real_dimension == 2 * 21


def test_teichmuller_riemann_roch_identity_across_catalog():
    names = ["SL(2,R)", "SL(3,R)", "SL(4,R)", "Sp(4,R)", "Sp(6,R)",
             "SO(4,3)", "SO(3,3)", "SO(4,4)"]
    for name in names:
        data = lie_catalog(name)
        for g, s in HYP_GRID:
            surface = standard_surface(g, s)
            report = teichmuller_dimension(data, g, s)
            assert report.real_dimension == \
                2 * sum(h0_twisted_power(surface, m) for m in data.exponents)
            assert report.real_dimension == \
                2 * (g - 1) * data.real_dimension + 2 * s * sum(data.exponents)


# every split group lie_catalog names: SL(n,R) for n >= 2, Sp(2n,R) for
# n >= 1, SO(n+1,n) for n >= 2 and SO(n,n) for n >= 3
SPLIT_NAMES = st.one_of(
    st.integers(2, 9).map(lambda n: f"SL({n},R)"),
    st.integers(1, 8).map(lambda n: f"Sp({2 * n},R)"),
    st.integers(2, 8).map(lambda n: f"SO({n + 1},{n})"),
    st.integers(3, 8).map(lambda n: f"SO({n},{n})"))
HYPERBOLIC = st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
    lambda gs: 2 * gs[0] - 2 + gs[1] > 0)


@given(name=SPLIT_NAMES, gs=HYPERBOLIC)
def test_teichmuller_real_dimension_is_the_riemann_roch_sum(name, gs):
    """The Riemann-Roch identity the summands add up to, for every split
    group over every hyperbolic (g, s): 2(g-1) dim G + 2s sum(exponents)."""
    g, s = gs
    data = lie_catalog(name)
    assert data.is_split
    assert teichmuller_dimension(data, g, s).real_dimension == \
        2 * (g - 1) * data.real_dimension + 2 * s * sum(data.exponents)


def test_teichmuller_statement_reading_tension():
    sl2 = lie_catalog("SL(2,R)")
    # rk m^C = 2 for SL(2,R); the statement's value differs from the
    # Riemann-Roch one as soon as s > 0
    report = teichmuller_dimension(sl2, 2, 1, rk_m_c=2)
    assert report.real_dimension == 8
    assert report.statement_real == 2 * 1 * 3 + 2 * 1 * 2
    assert report.statement_real != report.real_dimension
    assert any("not resolved" in note for note in report.notes)
    # at s = 0 the two readings coincide and no note is emitted
    closed = teichmuller_dimension(sl2, 2, 0, rk_m_c=2)
    assert closed.statement_real == closed.real_dimension
    assert closed.notes == ()


def test_teichmuller_rejects_non_split():
    hermitian = LieGroupData("SU(2,2)-type", 15, 2, (1, 3), is_split=False,
                             is_hermitian_tube=True)
    with pytest.raises(DomainError) as e:
        teichmuller_dimension(hermitian, 2, 1)
    assert e.value.payload()["error"] == "not_split"


def test_sl_kr_formula_agrees_with_teichmuller():
    for k in (2, 3, 4):
        data = lie_catalog(f"SL({k},R)")
        for g, s in HYP_GRID:
            assert sl_kr_parabolic_dimension(k, g, s) == \
                teichmuller_dimension(data, g, s).real_dimension
    assert sl_kr_parabolic_dimension(2, 2, 1) == 8


# --------------------------------------------------------------------------
# report plumbing


def test_dim_report_consistency_check():
    with pytest.raises(DomainError):
        DimReport(complex_dimension=4, real_dimension=9)
    report = DimReport(complex_dimension=None, real_dimension=9)
    assert report.real_dimension == 9


def test_dim_report_json():
    report = teichmuller_dimension(lie_catalog("SL(2,R)"), 2, 1)
    obj = to_json(report)
    assert obj["real_dimension"] == 8
    assert obj["summands"] == [
        {"label": "exponent_1", "complex_dim": 4, "real_dim": 8}]
    assert obj["statement_real"] is None


@pytest.mark.parametrize("value", [1.5, True, Fraction(2)],
                         ids=["float", "bool", "Fraction"])
@pytest.mark.parametrize("field", ["real_dimension", "rank", "exponent"])
def test_lie_group_data_takes_exact_ints(field, value):
    args = dict(name="x", real_dimension=3, rank=1, exponents=(1,),
                is_split=False, is_hermitian_tube=False)
    if field == "exponent":
        args["exponents"] = (value,)
        want = {"error": "bad_exponents", "name": "x", "exponents": (value,)}
    else:
        args[field] = value
        want = {"error": "bad_lie_data", "name": "x"}
    with pytest.raises(DomainError) as e:
        LieGroupData(**args)
    assert e.value.payload() == want
