"""Expected dimensions of Higgs-bundle moduli spaces.

Covers the GL(n,C) parabolic and strongly-parabolic formulas, the complex-
group formula, and the real dimension of the Teichmuller components of a
split real form, backed by a small catalog of split Lie groups with their
exponents.  The Teichmuller dimension is the Riemann-Roch sum of the section
spaces H^0(K^{m_i+1} xi^{m_i}); the alternative reading of the dimension
statement via rk E(m^C) generally disagrees with it and, when a rank value
is supplied, is reported alongside with a tension note rather than silently
replaced.
"""

from __future__ import annotations

import re
from typing import Sequence

from .exact_core import DomainError, exact_int, frozen_value, read_container
from .surface import h0_twisted_power, require_hyperbolic, standard_surface

__all__ = [
    "LieGroupData",
    "DimSummand",
    "DimReport",
    "lie_catalog",
    "complex_group_data",
    "dim_parabolic_gl",
    "dim_strongly_parabolic_gl",
    "dim_complex_group",
    "teichmuller_dimension",
    "sl_kr_parabolic_dimension",
    "full_flag_multiplicities",
]


# --------------------------------------------------------------------------
# Lie data


@frozen_value
class LieGroupData:
    """Dimension, rank and exponents of a real (or complexified) Lie group.

    For split entries the standard identity dim = l + 2*sum(m_i) is enforced
    as a self-check.  ``is_complex`` marks a complex group viewed as real
    (real_dimension is then twice the complex dimension).
    """

    name: str
    real_dimension: int
    rank: int
    exponents: tuple[int, ...]
    is_split: bool
    is_hermitian_tube: bool
    is_complex: bool = False

    def __post_init__(self):
        object.__setattr__(self, "exponents", read_container(
            self.exponents, tuple, "exponents_not_sequence"))
        exact_int(self.real_dimension, "bad_lie_data", 1, name=self.name)
        exact_int(self.rank, "bad_lie_data", 0, name=self.name)
        for m in self.exponents:
            exact_int(m, "bad_exponents", 1, name=self.name,
                      exponents=self.exponents)
        if self.is_split and \
                self.real_dimension != self.rank + 2 * sum(self.exponents):
            raise DomainError("catalog_identity_violated", name=self.name,
                              dim=self.real_dimension, rank=self.rank,
                              exponents=self.exponents)
        if self.is_complex and self.real_dimension % 2 != 0:
            raise DomainError("complex_dimension_odd", name=self.name)


# matched with re.match, whose cache compiles the pattern on first use
_NAME_RE = r"^(SL|Sp|SO)\((\d+)(?:,(\d+|R))?\)(?:,R)?$"


def lie_catalog(name: str) -> LieGroupData:
    """Split-group catalog: SL(n,R), Sp(2n,R), SO(n+1,n), SO(n,n).

    Exponents: SL(n): 1..n-1; Sp(2n) and SO(n+1,n): 1,3,..,2n-1;
    SO(n,n): 1,3,..,2n-3 together with n-1.
    """
    text = name.replace(" ", "")
    match = re.match(_NAME_RE, text)
    if not match:
        raise DomainError("unknown_group_name", name=name)
    family, first, second = match.group(1), int(match.group(2)), match.group(3)

    if family == "SL" and second in (None, "R"):
        n = first
        if n < 2:
            raise DomainError("unknown_group_name", name=name)
        return LieGroupData(
            name=f"SL({n},R)", real_dimension=n * n - 1, rank=n - 1,
            exponents=tuple(range(1, n)), is_split=True,
            is_hermitian_tube=(n == 2))
    if family == "Sp" and second in (None, "R"):
        if first % 2 != 0 or first < 2:
            raise DomainError("unknown_group_name", name=name)
        n = first // 2
        return LieGroupData(
            name=f"Sp({2 * n},R)", real_dimension=n * (2 * n + 1), rank=n,
            exponents=tuple(range(1, 2 * n, 2)), is_split=True,
            is_hermitian_tube=True)
    if family == "SO" and second not in (None, "R"):
        p, q = first, int(second)
        if p == q + 1 and q >= 2:
            n = q
            return LieGroupData(
                name=f"SO({n + 1},{n})", real_dimension=n * (2 * n + 1),
                rank=n, exponents=tuple(range(1, 2 * n, 2)), is_split=True,
                is_hermitian_tube=(n == 2))
        if p == q and p >= 3:
            n = p
            exps = tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
            return LieGroupData(
                name=f"SO({n},{n})", real_dimension=n * (2 * n - 1), rank=n,
                exponents=exps, is_split=True, is_hermitian_tube=False)
    raise DomainError("unknown_group_name", name=name)


def complex_group_data(name: str, complex_dimension: int) -> LieGroupData:
    """A complex group viewed as a real group (dim_R = 2 dim_C); a complex
    dimension that is not an int >= 1 is refused (bad_lie_data)."""
    exact_int(complex_dimension, "bad_lie_data", 1, name=name)
    return LieGroupData(name=name, real_dimension=2 * complex_dimension,
                        rank=0, exponents=(), is_split=False,
                        is_hermitian_tube=False, is_complex=True)


# --------------------------------------------------------------------------
# reports


@frozen_value
class DimSummand:
    label: str
    complex_dim: int | None
    real_dim: int


@frozen_value
class DimReport:
    """Moduli dimension with a per-summand breakdown.

    ``statement_real`` carries the alternative reading of the split-group
    dimension statement (2(g-1)dim_R G + 2s*rk E(m^C)); when it disagrees
    with the Riemann-Roch value the tension is noted, not resolved.
    """

    complex_dimension: int | None
    real_dimension: int
    summands: tuple[DimSummand, ...] = ()
    statement_real: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.complex_dimension is not None and \
                self.real_dimension != 2 * self.complex_dimension:
            raise DomainError("real_complex_mismatch",
                              complex=self.complex_dimension,
                              real=self.real_dimension)


# --------------------------------------------------------------------------
# GL(n,C) moduli


def dim_parabolic_gl(n: int, g: int, s: int) -> int:
    """dim of the parabolic GL(n,C) Higgs moduli: (2g-2+s)n^2 + 1."""
    exact_int(n, "bad_rank", n=n)
    if n < 1:
        raise DomainError("rank_not_positive", n=n)
    require_hyperbolic(standard_surface(g, s))
    return (2 * g - 2 + s) * n * n + 1


def full_flag_multiplicities(n: int, s: int) -> tuple[tuple[int, ...], ...]:
    exact_int(n, "bad_rank", n=n)
    exact_int(s, "bad_marked_points", 0, s=s)
    return ((1,) * n,) * s


def dim_strongly_parabolic_gl(n: int, g: int, s: int,
                              multiplicities: Sequence[Sequence[int]]) -> int:
    """dim of the strongly parabolic moduli: 2(g-1)n^2 + 2 + 2*sum f_x.

    ``multiplicities`` gives the flag-step multiplicities k_1..k_r at each
    marked point (summing to n; a point's steps that are not a sequence are
    refused with bad_multiplicities); the flag contributes
    f_x = (n^2 - sum k_i^2)/2, which vanishes for the trivial flag (n,) and
    is maximal for the full flag (1,..,1).
    """
    exact_int(n, "bad_rank", n=n)
    if n < 1:
        raise DomainError("rank_not_positive", n=n)
    require_hyperbolic(standard_surface(g, s))
    mults = [read_container(m, tuple, "bad_multiplicities") for m in
             read_container(multiplicities, iter, "multiplicities_not_sequence")]
    if len(mults) != s:
        raise DomainError("bad_multiplicities", expected_points=s,
                          got=len(mults))
    total = 2 * (g - 1) * n * n + 2
    for idx, ks in enumerate(mults):
        for k in ks:
            exact_int(k, "bad_multiplicities", 1, point=idx, steps=ks, n=n)
        if not ks or sum(ks) != n:
            raise DomainError("bad_multiplicities", point=idx, steps=ks, n=n)
        # n^2 - sum k_i^2 = 2 * sum_{i<j} k_i k_j is always even
        total += n * n - sum(k * k for k in ks)
    return total


# --------------------------------------------------------------------------
# complex groups and split real forms


def dim_complex_group(gdata: LieGroupData, g: int, s: int) -> DimReport:
    """Expected dimension for a complex group G:
    complex 2(g-1)dim_C G + s*dim_C G, real twice that.

    For complex G the isotropy representation satisfies m^C = g, so the
    marked-point term contributes dim_C G per point.
    """
    if not gdata.is_complex:
        raise DomainError("not_complex_group", name=gdata.name)
    require_hyperbolic(standard_surface(g, s))
    dc = gdata.real_dimension // 2
    bulk = 2 * (g - 1) * dc
    points = s * dc
    summands = (DimSummand("closed_surface_part", bulk, 2 * bulk),
                DimSummand("marked_point_part", points, 2 * points))
    total = bulk + points
    return DimReport(complex_dimension=total, real_dimension=2 * total,
                     summands=summands)


_TENSION_NOTE = ("statement reading 2(g-1)dim_R G + 2s*rk E(m^C) differs "
                 "from the Riemann-Roch value 2(g-1)dim_R G + 2s*sum(m_i); "
                 "the discrepancy is reported, not resolved")


def teichmuller_dimension(gdata: LieGroupData, g: int, s: int,
                          rk_m_c: int | None = None) -> DimReport:
    """Real dimension of a Teichmuller component for split G.

    One summand per exponent m_i: the component is built from sections of
    K^{m_i+1} xi^{m_i}, of complex dimension (2m_i+1)(g-1) + m_i*s each, so
    the real dimension is 2(g-1)dim_R G + 2s*sum(m_i).  Supplying ``rk_m_c``
    adds the statement's alternative reading as ``statement_real``; one
    that is not an exact int is refused (bad_rk_m_c).
    """
    if not gdata.is_split:
        raise DomainError("not_split", group=gdata.name)
    surface = require_hyperbolic(standard_surface(g, s))
    if rk_m_c is not None:
        exact_int(rk_m_c, "bad_rk_m_c", rk_m_c=rk_m_c)
    summands = []
    total_c = 0
    for m in gdata.exponents:
        h0 = h0_twisted_power(surface, m)
        total_c += h0
        summands.append(DimSummand(f"exponent_{m}", h0, 2 * h0))
    real = 2 * total_c
    statement = None
    notes: tuple[str, ...] = ()
    if rk_m_c is not None:
        statement = 2 * (g - 1) * gdata.real_dimension + 2 * s * rk_m_c
        if statement != real:
            notes = (_TENSION_NOTE,)
    return DimReport(complex_dimension=total_c, real_dimension=real,
                     summands=tuple(summands), statement_real=statement,
                     notes=notes)


def sl_kr_parabolic_dimension(k: int, g: int, s: int) -> int:
    """The cited SL(k,R) parabolic Teichmuller dimension:
    2(g-1)(k^2-1) + s(k^2-k)."""
    exact_int(k, "bad_rank", n=k)
    if k < 2:
        raise DomainError("rank_not_positive", n=k)
    require_hyperbolic(standard_surface(g, s))
    return 2 * (g - 1) * (k * k - 1) + s * (k * k - k)
