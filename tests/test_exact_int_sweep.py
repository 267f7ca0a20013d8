"""Every ``int`` and container parameter of the public surface refuses what
it cannot read.

The sweep walks each module's ``__all__`` (the list test_public_surface.py
reads) and resolves the annotations of every function and every value class
(a class's fields are its constructor's parameters) with
``typing.get_type_hints``.  A parameter annotated ``int`` or ``int | None``
is given 1.5, ``True`` and ``Fraction(2)``, and one annotated ``int | None``
must still accept None; one annotated as a container (a tuple, list,
frozenset, dict, Sequence, Mapping or Iterable, alone or ``| None``) is given
5, ``None`` (unless ``None`` is its default) and ``object()``.  ``VALID``
holds one call of each callable that succeeds; each probe changes one
argument of it.  The call must raise DomainError, never another exception
and never return.  ``cli.main`` catches the DomainError: it must print the
error object and return 2.  A container's refusal carries the code
``CONTAINER_CODES`` names and the type given.
"""

import importlib
import inspect
import json
from collections import abc
from fractions import Fraction
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import pytest

from parhiggs.components import (CountMode, emit_tables, so0_2n, split_group,
                                 sp2nr)
from parhiggs.dimension import complex_group_data, lie_catalog
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import (LocalChart, VLineBundle, laurent_matrix,
                               laurent_to_json)
from parhiggs.parbun import ParabolicLineBundle, trivial_flag
from parhiggs.stability import DecomposableHiggsModel
from parhiggs.surface import MarkedPoint, standard_surface

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parhiggs"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

_REPORT = ("a report the library builds from values it has already checked; "
           "no caller's input is read as one")

# name -> reason it is not swept
EXEMPT = {
    "exact_core.exact_int": "the exact-int rule itself; its low is each "
                            "caller's own constant and positional-only",
    "exact_core.rat": "the interned constructor every exact rational of the "
                      "package is built by; a check on its cached hit path would "
                      "slow every verdict, and its callers pass ints they made",
    "components.InvariantTuple": "its optional fields are required or "
                                 "forbidden by kind, which the sweep's None "
                                 "check cannot express; "
                                 "test_invariant_refusals.py probes each "
                                 "field instead",
    "components.CaseCount": _REPORT,
    "components.ComponentCountReport": _REPORT,
    "components.ComponentTable": _REPORT,
    "components.S1ReductionReport": _REPORT,
    "dimension.DimSummand": _REPORT,
    "dimension.DimReport": _REPORT,
    "orbifold.SquareRootFamily": _REPORT,
    "orbifold.PicVStructure": _REPORT,
    "stability.StabilityReport": _REPORT,
}

# callables that catch a DomainError, print its object and return 2
PRINTS_ITS_REFUSAL = {"cli.main"}

F = Fraction
_MAT = laurent_matrix(1, {(0, 0): [(0, F(1))]}, (-1, 8), "dw/w")
_SURF = standard_surface(2, 1)
_LINE = ParabolicLineBundle(0, {"x1": F(1, 2)})
_ARROWS = frozenset({(0, 1), (1, 0)})

# name -> keyword arguments of one call that succeeds
VALID = {
    "cli.main": dict(argv=["mw", "--n", "2", "--g", "2", "--s", "1"]),
    "components.sp2nr": dict(n=2),
    "components.sunn": dict(n=2),
    "components.so_star_2n": dict(n=2),
    "components.so0_2n": dict(n=3),
    "components.GroupDescriptor": dict(family="split", name="SL(3,R)"),
    "components.count_components": dict(group=sp2nr(2), g=2, s=1,
                                        mode=CountMode.max_union()),
    "components.enumerate_invariants_sp": dict(n=1, g=1, s=1,
                                               mode=CountMode.max_union()),
    "components.teichmuller_count": dict(group=split_group("SL(3,R)"), g=2, s=1),
    "components.emit_tables": dict(g=2, s=1),
    "components.tables_markdown": dict(tables=emit_tables(2, 1), g=2, s=1),
    "components.strubel_count": dict(g=2, m=1),
    "components.s1_reduction_report": dict(group=so0_2n(3), g=2),
    "dimension.LieGroupData": dict(name="SL(2,R)", real_dimension=3, rank=1,
                                   exponents=(1,), is_split=True,
                                   is_hermitian_tube=True),
    "dimension.complex_group_data": dict(name="SL(2,C)", complex_dimension=3),
    "dimension.dim_parabolic_gl": dict(n=2, g=2, s=1),
    "dimension.dim_strongly_parabolic_gl": dict(n=2, g=2, s=1,
                                                multiplicities=[(1, 1)]),
    "dimension.dim_complex_group": dict(gdata=complex_group_data("SL(2,C)", 3),
                                        g=2, s=1),
    "dimension.teichmuller_dimension": dict(gdata=lie_catalog("Sp(4,R)"), g=2, s=1),
    "dimension.sl_kr_parabolic_dimension": dict(k=3, g=2, s=1),
    "dimension.full_flag_multiplicities": dict(n=2, s=1),
    "exact_core.exact_cap": dict(cap=10),
    "exact_core.check_cap": dict(needed=1, cap=10),
    "exact_core.rational_sum": dict(values=[F(1, 2), 1]),
    "orbifold.VLineBundle": dict(desing_degree=0, isotropy={"x1": 1}),
    "orbifold.Z2Character": dict(ab=(0, 1), sigma=(1, 1)),
    "orbifold.LocalChart": dict(m=2, exponents=(0, 1)),
    "orbifold.LaurentMatrix": dict(n=1, entries=((((0, F(1)),),),),
                                   window=(-1, 8), form="dw/w"),
    "orbifold.laurent_matrix": dict(n=1, terms={(0, 0): [(0, F(1))]},
                                    window=(-1, 8), form="dw/w"),
    "orbifold.par_to_orb_local": dict(m=2, weights=(F(0),), higgs=_MAT),
    "orbifold.orb_to_par_local": dict(chart=LocalChart(2, (0,)),
                                      mat=laurent_matrix(1, {}, (-1, 8), "dz/z")),
    "orbifold.laurent_to_json": dict(mat=_MAT, m=2),
    "orbifold.square_root_types": dict(l=VLineBundle(2), surf=_SURF),
    "orbifold.z2_character_enumerate": dict(surf=_SURF),
    "orbifold.laurent_from_json": dict(obj=laurent_to_json(_MAT, 2)),
    "parbun.ParabolicFlag": dict(multiplicities=(1, 1), weights=(F(0), F(1, 2))),
    "parbun.ParabolicLineBundle": dict(degree=0, weight_at={"x1": F(1, 2)}),
    "parbun.ParabolicBundle": dict(rank=2, degree=0,
                                   flag_at={"x1": trivial_flag(2)}),
    "parbun.trivial_flag": dict(rank=2),
    "stability.DecomposableHiggsModel": dict(surface=_SURF,
                                             summands=(_LINE, _LINE),
                                             arrows=_ARROWS),
    "stability.SpTripleModel": dict(surface=_SURF, v_summands=(_LINE, _LINE),
                                    beta_arrows=_ARROWS,
                                    gamma_arrows=frozenset({(0, 0)})),
    "stability.milnor_wood_bound": dict(n=2, g=2, s=1),
    "stability.general_mw_interval": dict(rk_plus=1, rk_minus=1, g=2, s=1),
    "stability.hitchin_model": dict(k=3, g=2, s=1),
    "stability.hitchin_sp_triple": dict(k=4, g=2, s=1),
    "stability.sp_filtration_degree": dict(
        m=DecomposableHiggsModel(_SURF, (_LINE, _LINE)),
        index_steps=[[0], [0, 1]], weights=[0, 1], alpha=0),
    "surface.MarkedPoint": dict(label="x1", order=2),
    "surface.MarkedSurface": dict(genus=1, points=(MarkedPoint("x1"),)),
    "surface.standard_surface": dict(genus=2, s=1),
    "surface.h0_twisted_power": dict(surface=_SURF, m=1),
    "vcoh.VCohRanks": dict(h0=1, h1=1, h2=1),
    "vcoh.MVPieces": dict(v1=(1, 2, 0), v2=(1, 1, 1), intersection=(1, 1, 0),
                          restriction=(1, 1, 0)),
    "vcoh.v_cohomology_ranks": dict(g=2, s=1, mode="order2"),
}

# (name, container parameter) -> the code its refusal carries, with the
# type given as its one payload entry; laurent_from_json's obj is the
# codec's, refused with bad_json and the path (test_codec.py)
CONTAINER_CODES = {
    ("cli.main", "argv"): "argv_not_sequence",
    ("components.tables_markdown", "tables"): "tables_not_sequence",
    ("dimension.LieGroupData", "exponents"): "exponents_not_sequence",
    ("dimension.dim_strongly_parabolic_gl", "multiplicities"):
        "multiplicities_not_sequence",
    ("exact_core.rational_sum", "values"): "values_not_sequence",
    ("orbifold.VLineBundle", "isotropy"): "isotropy_not_mapping",
    ("orbifold.Z2Character", "ab"): "ab_not_sequence",
    ("orbifold.Z2Character", "sigma"): "sigma_not_sequence",
    ("orbifold.LocalChart", "exponents"): "exponents_not_sequence",
    ("orbifold.LaurentMatrix", "entries"): "entries_not_sequence",
    ("orbifold.LaurentMatrix", "window"): "bad_window",
    ("orbifold.laurent_matrix", "terms"): "terms_not_mapping",
    ("orbifold.laurent_matrix", "window"): "bad_window",
    ("orbifold.par_to_orb_local", "weights"): "weights_not_sequence",
    ("orbifold.par_to_orb_local", "window"): "bad_window",
    ("orbifold.orb_to_par_local", "window"): "bad_window",
    ("parbun.ParabolicFlag", "multiplicities"): "multiplicities_not_sequence",
    ("parbun.ParabolicFlag", "weights"): "weights_not_sequence",
    ("parbun.ParabolicLineBundle", "weight_at"): "weight_at_not_mapping",
    ("parbun.ParabolicBundle", "flag_at"): "flag_at_not_mapping",
    ("stability.DecomposableHiggsModel", "summands"): "summands_not_sequence",
    ("stability.DecomposableHiggsModel", "arrows"): "arrows_not_sequence",
    ("stability.SpTripleModel", "v_summands"): "v_summands_not_sequence",
    ("stability.SpTripleModel", "beta_arrows"): "beta_arrows_not_sequence",
    ("stability.SpTripleModel", "gamma_arrows"): "gamma_arrows_not_sequence",
    ("stability.sp_filtration_degree", "index_steps"): "index_steps_not_sequence",
    ("stability.sp_filtration_degree", "weights"): "weights_not_sequence",
    ("surface.MarkedSurface", "points"): "points_not_sequence",
    ("vcoh.MVPieces", "v1"): "v1_not_sequence",
    ("vcoh.MVPieces", "v2"): "v2_not_sequence",
    ("vcoh.MVPieces", "intersection"): "intersection_not_sequence",
    ("vcoh.MVPieces", "restriction"): "restriction_not_sequence",
}

_CONTAINERS = {tuple, list, frozenset, dict, abc.Sequence, abc.Mapping,
               abc.Iterable}
INT_PROBES = (1.5, True, Fraction(2))
CONTAINER_PROBES = (5, None, object())


def _is_int(hint) -> bool:
    """Whether hint is int, alone or in a union with None."""
    return hint is int or hint == int | None


def _is_container(hint) -> bool:
    """Whether hint is a container type, alone or in a union with None."""
    kinds = get_args(hint) if isinstance(hint, UnionType) else (hint,)
    return any((get_origin(k) or k) in _CONTAINERS for k in kinds)


def _parameters() -> dict:
    """name -> (callable, its int parameters, its container parameters with
    their defaults, its int parameters that may be None), over every
    function and value class in the __all__ of every module."""
    out = {}
    for stem in MODULES:
        mod = importlib.import_module(f"parhiggs.{stem}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isclass(fn):
                if not hasattr(fn, "_value_fields"):
                    continue  # an enum-like holder, not a value class
            elif not inspect.isfunction(inspect.unwrap(fn)):
                continue  # a constant such as EMPTY_MAPPING
            hints = get_type_hints(fn)
            params = inspect.signature(fn).parameters
            ints = [p for p in params if _is_int(hints.get(p))]
            containers = {p: params[p].default for p in params
                          if p in hints and _is_container(hints[p])}
            if ints or containers:
                out[f"{stem}.{name}"] = (fn, ints, containers,
                                         [p for p in ints if hints[p] is not int])
    return out


SURFACE = _parameters()
PROBES = [(name, param, bad) for name, (_, ints, _, _) in SURFACE.items()
          if name not in EXEMPT for param in ints for bad in INT_PROBES]
OPTIONAL_INTS = [(name, param) for name, (*_, optional) in SURFACE.items()
                 if name not in EXEMPT for param in optional]
CONTAINER_CASES = [(name, param, bad)
                   for name, (_, _, containers, _) in SURFACE.items()
                   if name not in EXEMPT
                   for param, default in containers.items()
                   for bad in CONTAINER_PROBES
                   if not (bad is None and default is None)]


def _refusal(name, param, bad, capsys) -> dict:
    """The error object of the call VALID[name] with param set to bad."""
    fn = SURFACE[name][0]
    kwargs = dict(VALID[name], **{param: bad})
    try:
        result = fn(**kwargs)
    except DomainError as err:
        return err.payload()
    except Exception as exc:  # a bare Python error is a miss too
        pytest.fail(f"{name}({param}={bad!r}) raised {type(exc).__name__}: {exc}")
    if name in PRINTS_ITS_REFUSAL and result == 2:
        return json.loads(capsys.readouterr().out)
    pytest.fail(f"{name}({param}={bad!r}) returned {result!r}")


def test_every_swept_parameter_has_a_valid_call_or_a_stated_exemption():
    assert sorted(VALID) == sorted(set(SURFACE) - set(EXEMPT))
    assert set(EXEMPT) <= set(SURFACE)


def test_every_container_code_names_a_swept_parameter():
    swept = {(name, param) for name, param, _ in CONTAINER_CASES}
    assert swept - set(CONTAINER_CODES) == {("orbifold.laurent_from_json", "obj")}


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_succeeds(name):
    result = SURFACE[name][0](**VALID[name])
    if name in PRINTS_ITS_REFUSAL:
        assert result == 0


@pytest.mark.parametrize("name,param,bad", PROBES,
                         ids=[f"{n}-{p}-{b!r}" for n, p, b in PROBES])
def test_int_parameter_refuses_a_value_that_is_not_an_exact_int(
        name, param, bad, capsys):
    _refusal(name, param, bad, capsys)


def test_the_optional_ints_are_swept():
    assert sorted(OPTIONAL_INTS) == [
        ("components.GroupDescriptor", "n"),
        ("components.count_components", "cap"),
        ("components.enumerate_invariants_sp", "cap"),
        ("components.s1_reduction_report", "cap"),
        ("dimension.teichmuller_dimension", "rk_m_c"),
        ("exact_core.check_cap", "cap"),
        ("orbifold.square_root_types", "cap"),
        ("orbifold.z2_character_enumerate", "cap")]


@pytest.mark.parametrize("name,param", OPTIONAL_INTS,
                         ids=[f"{n}-{p}" for n, p in OPTIONAL_INTS])
def test_optional_int_parameter_accepts_none(name, param):
    SURFACE[name][0](**dict(VALID[name], **{param: None}))


@pytest.mark.parametrize("name,param,bad", CONTAINER_CASES,
                         ids=[f"{n}-{p}-{type(b).__name__}"
                              for n, p, b in CONTAINER_CASES])
def test_container_parameter_refuses_a_value_that_is_not_one(
        name, param, bad, capsys):
    payload = _refusal(name, param, bad, capsys)
    code = CONTAINER_CODES.get((name, param))
    if code is not None:
        assert payload == {"error": code, "type": type(bad).__name__}
