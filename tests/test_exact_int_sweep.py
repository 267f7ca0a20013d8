"""Every ``int`` parameter of the public surface refuses what is not an
exact int.

The sweep walks each module's ``__all__`` (the list test_public_surface.py
reads) and finds every function with a parameter annotated ``int``.
``VALID`` holds one call of each that succeeds.  Each such parameter in turn
is given 1.5, ``True`` and ``Fraction(2)``, the rest of the call unchanged:
the call must raise DomainError, never another exception and never return.
"""

import importlib
import inspect
from fractions import Fraction
from pathlib import Path

import pytest

from parhiggs.components import (CountMode, emit_tables, so0_2n, split_group,
                                 sp2nr)
from parhiggs.dimension import complex_group_data, lie_catalog
from parhiggs.exact_core import DomainError
from parhiggs.orbifold import laurent_matrix
from parhiggs.surface import standard_surface

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "parhiggs"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# name -> reason it is not swept
EXEMPT = {
    "exact_core.rat": "the interned constructor every exact rational of the "
                      "package is built by; a check on its cached hit path would "
                      "slow every verdict, and its callers pass ints they made",
}

_MAT = laurent_matrix(1, {(0, 0): [(0, Fraction(1))]}, (-1, 8), "dw/w")

# name -> keyword arguments of one call that succeeds
VALID = {
    "components.sp2nr": dict(n=2),
    "components.sunn": dict(n=2),
    "components.so_star_2n": dict(n=2),
    "components.so0_2n": dict(n=3),
    "components.count_components": dict(group=sp2nr(2), g=2, s=1,
                                        mode=CountMode.max_union()),
    "components.enumerate_invariants_sp": dict(n=1, g=1, s=1,
                                               mode=CountMode.max_union()),
    "components.teichmuller_count": dict(group=split_group("SL(3,R)"), g=2, s=1),
    "components.emit_tables": dict(g=2, s=1),
    "components.tables_markdown": dict(tables=emit_tables(2, 1), g=2, s=1),
    "components.strubel_count": dict(g=2, m=1),
    "components.s1_reduction_report": dict(group=so0_2n(3), g=2),
    "dimension.complex_group_data": dict(name="SL(2,C)", complex_dimension=3),
    "dimension.dim_parabolic_gl": dict(n=2, g=2, s=1),
    "dimension.dim_strongly_parabolic_gl": dict(n=2, g=2, s=1,
                                                multiplicities=[(1, 1)]),
    "dimension.dim_complex_group": dict(gdata=complex_group_data("SL(2,C)", 3),
                                        g=2, s=1),
    "dimension.teichmuller_dimension": dict(gdata=lie_catalog("Sp(4,R)"), g=2, s=1),
    "dimension.sl_kr_parabolic_dimension": dict(k=3, g=2, s=1),
    "dimension.full_flag_multiplicities": dict(n=2, s=1),
    "exact_core.check_cap": dict(needed=1, cap=10),
    "orbifold.laurent_matrix": dict(n=1, terms={(0, 0): [(0, Fraction(1))]},
                                    window=(-1, 8), form="dw/w"),
    "orbifold.par_to_orb_local": dict(m=2, weights=(Fraction(0),), higgs=_MAT),
    "orbifold.laurent_to_json": dict(mat=_MAT, m=2),
    "parbun.trivial_flag": dict(rank=2),
    "stability.milnor_wood_bound": dict(n=2, g=2, s=1),
    "stability.general_mw_interval": dict(rk_plus=1, rk_minus=1, g=2, s=1),
    "stability.hitchin_model": dict(k=3, g=2, s=1),
    "stability.hitchin_sp_triple": dict(k=4, g=2, s=1),
    "surface.standard_surface": dict(genus=2, s=1),
    "surface.h0_twisted_power": dict(surface=standard_surface(2, 1), m=1),
    "vcoh.v_cohomology_ranks": dict(g=2, s=1, mode="order2"),
}


def _int_parameters() -> dict:
    """name -> (function, its parameters annotated int), over every module's
    __all__."""
    out = {}
    for stem in MODULES:
        mod = importlib.import_module(f"parhiggs.{stem}")
        for name in mod.__all__:
            fn = getattr(mod, name)
            if inspect.isclass(fn) or not callable(fn):
                continue  # a value class's generated __init__ has no annotations
            ints = [p for p, param in inspect.signature(fn).parameters.items()
                    if param.annotation in ("int", int)]
            if ints:
                out[f"{stem}.{name}"] = (fn, ints)
    return out


SURFACE = _int_parameters()
PROBES = [(name, param, bad) for name, (_, params) in SURFACE.items()
          if name not in EXEMPT
          for param in params for bad in (1.5, True, Fraction(2))]


def test_every_int_parameter_has_a_valid_call_or_a_stated_exemption():
    assert sorted(VALID) == sorted(set(SURFACE) - set(EXEMPT))
    assert set(EXEMPT) <= set(SURFACE)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_call_succeeds(name):
    SURFACE[name][0](**VALID[name])


@pytest.mark.parametrize("name,param,bad", PROBES,
                         ids=[f"{n}-{p}-{b!r}" for n, p, b in PROBES])
def test_int_parameter_refuses_a_value_that_is_not_an_exact_int(name, param, bad):
    fn = SURFACE[name][0]
    kwargs = dict(VALID[name], **{param: bad})
    try:
        result = fn(**kwargs)
    except DomainError:
        return
    except Exception as exc:  # a bare Python error is a miss too
        pytest.fail(f"{name}({param}={bad!r}) raised {type(exc).__name__}: {exc}")
    pytest.fail(f"{name}({param}={bad!r}) returned {result!r}")
