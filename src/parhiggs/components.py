"""Connected-component lower bounds for maximal parabolic G-Higgs moduli.

For each Hermitian-type group the moduli space of maximal polystable objects
splits into pieces indexed by discrete topological invariants: Stiefel-Whitney
style classes w1 (dimension 2g+s-1 over Z_2) and w2 (dimension s), parabolic
structures with a bounded degree, and square-root classes at the maximal
degree.  One case table holds, per group row and mode, the published cases as
products of those factors, plus the published total.  Counts read it: a
case's closed form is the product of its factor sizes, and its enumerated
count stores each invariant tuple from checked parts and keeps none (the
enumeration cap is checked against the case sizes first).  The three
summary tables print the published totals.  All counts are lower bounds
("minimum components"); exactness is not claimed.

Modes:
  * ``max_union``      -- all maximal objects, union over parabolic weights;
  * ``max_fixed_alpha``-- maximal objects with a fixed weight assignment
                          (weights in {0, 1/2}; only the parity matters);
  * ``punctured``      -- boundary/puncture count (H^2 of the glued surface
                          vanishes, killing w2 and the degree cases);
  * ``nonparabolic_s1``-- the closed-surface catalog, for comparison at s=1;
  * ``nonparabolic_kd_twisted_s1`` -- the K(D)-twisted closed-surface counts
                          (available for Sp(4,R) and SO0(2,3) only).
"""

from __future__ import annotations

from itertools import islice, product
from typing import Callable, Iterable, Iterator

from .exact_core import (DomainError, check_cap, exact_bits, exact_int,
                         frozen_value, read_container)
from .surface import require_hyperbolic, standard_surface

__all__ = [
    "GroupDescriptor",
    "CountMode",
    "InvariantTuple",
    "CaseCount",
    "ComponentCountReport",
    "TableRow",
    "ComponentTable",
    "sp2nr",
    "sunn",
    "so_star_2n",
    "so0_2n",
    "e7_minus25",
    "split_group",
    "is_split",
    "count_components",
    "enumerate_invariants_sp",
    "teichmuller_count",
    "emit_tables",
    "tables_markdown",
    "strubel_count",
    "S1ReductionReport",
    "s1_reduction_report",
]


# --------------------------------------------------------------------------
# group descriptors


_FAMILIES = ("Sp2nR", "SUnn", "SOstar2n", "SO0_2n", "E7minus25", "split")


@frozen_value
class GroupDescriptor:
    """A real Lie group of Hermitian (or split) type, by family and rank tag.

    ``n`` is the family parameter: Sp(2n,R), SU(n,n), SO*(2n), SO0(2,n).
    SO*(2n) requires n even; SO0(2,n) requires n >= 3.  ``split`` groups
    carry only a display name and are accepted by :func:`teichmuller_count`;
    they, like E7, take no n (group_takes_no_rank).
    """

    family: str
    n: int | None = None
    name: str | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError("unknown_group_family", family=self.family)
        if self.family == "split" and not self.name:
            raise DomainError("split_group_needs_name")
        if self.family in ("split", "E7minus25"):
            if self.n is not None:
                raise DomainError("group_takes_no_rank", family=self.family)
        else:
            exact_int(self.n, "group_needs_rank", 1, family=self.family)
            if self.family == "SOstar2n" and self.n % 2 != 0:
                raise DomainError("so_star_needs_even_rank", n=self.n)
            if self.family == "SO0_2n" and self.n < 3:
                raise DomainError("so0_needs_rank_at_least_3", n=self.n)

    def display(self) -> str:
        if self.family == "Sp2nR":
            base = f"Sp({2 * self.n},R)"
            return base + "=SL(2,R)" if self.n == 1 else base
        if self.family == "SUnn":
            return f"SU({self.n},{self.n})"
        if self.family == "SOstar2n":
            return f"SO*({2 * self.n})"
        if self.family == "SO0_2n":
            return f"SO0(2,{self.n})"
        if self.family == "E7minus25":
            return "E7^{-25}"
        return self.name

    def _json_shape(self, obj: dict) -> dict:
        """The fields' JSON without an unset n or name, plus the display."""
        obj = {k: v for k, v in obj.items() if v is not None}
        obj["display"] = self.display()
        return obj


def sp2nr(n: int) -> GroupDescriptor:
    return GroupDescriptor("Sp2nR", n=n)


def sunn(n: int) -> GroupDescriptor:
    return GroupDescriptor("SUnn", n=n)


def so_star_2n(n: int) -> GroupDescriptor:
    return GroupDescriptor("SOstar2n", n=n)


def so0_2n(n: int) -> GroupDescriptor:
    return GroupDescriptor("SO0_2n", n=n)


def e7_minus25() -> GroupDescriptor:
    return GroupDescriptor("E7minus25")


def split_group(name: str) -> GroupDescriptor:
    return GroupDescriptor("split", name=name)


def is_split(group: GroupDescriptor) -> bool:
    """Whether the group is a split real form.

    Sp(2n,R) is split for every n; SU(n,n) only for n=1 (SU(1,1) is
    isogenous to SL(2,R)); SO*(2n), SO0(2,n) and E7^{-25} are not split.
    """
    if group.family == "Sp2nR" or group.family == "split":
        return True
    if group.family == "SUnn":
        return group.n == 1
    return False


# --------------------------------------------------------------------------
# count modes


_VARIANTS = (
    "max_union",
    "max_fixed_alpha",
    "punctured",
    "nonparabolic_s1",
    "nonparabolic_kd_twisted_s1",
)


@frozen_value
class CountMode:
    """Which moduli space is being counted.

    ``max_fixed_alpha`` carries the parity of the fixed weight assignment
    (weights in {0, 1/2}; only the parity of the number of 1/2's enters the
    count); :meth:`fixed_parity` gives it.
    """

    variant: str
    parity: str | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise DomainError("unknown_count_mode", variant=self.variant)
        if self.variant == "max_fixed_alpha":
            if self.parity not in ("even", "odd"):
                raise DomainError("fixed_alpha_needs_parity", parity=self.parity)
        elif self.parity is not None:
            raise DomainError("mode_takes_no_parity", variant=self.variant)

    def _json_shape(self, obj: dict) -> dict:
        """The fields' JSON without an unset parity."""
        return {k: v for k, v in obj.items() if v is not None}

    @staticmethod
    def max_union() -> "CountMode":
        return CountMode("max_union")

    @staticmethod
    def fixed_parity(par: str) -> "CountMode":
        return CountMode("max_fixed_alpha", parity=par)

    @staticmethod
    def punctured() -> "CountMode":
        return CountMode("punctured")

    @staticmethod
    def nonparabolic() -> "CountMode":
        return CountMode("nonparabolic_s1")

    @staticmethod
    def kd_twisted() -> "CountMode":
        return CountMode("nonparabolic_kd_twisted_s1")


# --------------------------------------------------------------------------
# invariant tuples


_TUPLE_FIELDS = ("w1", "w2", "parabolic", "degree", "root_index")
# Per kind, which of _TUPLE_FIELDS are set; the others must be None.
_TUPLE_SHAPES = {
    "w1_w2": (True, True, False, False, False),
    "parabolic_degree": (False, False, True, True, False),
    "square_root": (False, False, False, False, True),
}
_TUPLE_KINDS = tuple(_TUPLE_SHAPES)  # an unhashable kind is refused too


@frozen_value
class InvariantTuple:
    """One topological invariant value, tagged by kind.

    ``w1_w2``: a pair of Z_2-vectors (w1 of length 2g+s-1, w2 of length s);
    ``parabolic_degree``: a parabolic structure bit-vector (length s) plus a
    sub-maximal degree; ``square_root``: an index into the square-root family
    at the maximal degree.  Vectors are kept as tuples of bits (exact_bits);
    a degree or a root index is an exact int >= 0.
    """

    kind: str
    w1: tuple[int, ...] | None = None
    w2: tuple[int, ...] | None = None
    parabolic: tuple[int, ...] | None = None
    degree: int | None = None
    root_index: int | None = None

    def __post_init__(self):
        if self.kind not in _TUPLE_KINDS:
            raise DomainError("unknown_invariant_kind", kind=self.kind)
        for name, required in zip(_TUPLE_FIELDS, _TUPLE_SHAPES[self.kind]):
            if (getattr(self, name) is None) == required:
                raise DomainError("invariant_field_missing" if required
                                  else "invariant_field_forbidden",
                                  kind=self.kind, field=name)
        for name in _TUPLE_FIELDS[:3]:  # the bit vectors
            if getattr(self, name) is not None:
                object.__setattr__(self, name, exact_bits(
                    getattr(self, name), "invariant_bits_not_binary",
                    f"{name}_not_sequence", kind=self.kind))
        degree, root = self.degree, self.root_index
        if degree is not None:
            exact_int(degree, "invariant_degree_negative", 0, degree=degree)
        if root is not None:
            exact_int(root, "invariant_root_index_negative", 0, root_index=root)


# --------------------------------------------------------------------------
# reports


@frozen_value
class CaseCount:
    label: str
    enumerated: int
    closed_form: int


@frozen_value
class ComponentCountReport:
    """Per-case component counts with the closed-form cross-check.

    ``total_closed_form`` is the published total formula for the mode, which
    may group the cases differently from the enumeration; ``match`` records
    whether the enumerated total agrees with it.  A mismatch is reported,
    never reconciled.  ``verdict`` is set to ``"no_maximal_objects"`` when
    the moduli space is empty (and the case list is then empty too).
    """

    group: GroupDescriptor
    genus: int
    marked_points: int
    mode: CountMode
    cases: tuple[CaseCount, ...]
    total_enumerated: int
    total_closed_form: int
    match: bool
    count_kind: str = "minimum components"
    verdict: str | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.total_enumerated != sum(c.enumerated for c in self.cases):
            raise DomainError("case_totals_inconsistent",
                              total=self.total_enumerated)


def _require_marked(g: int, s: int) -> None:
    if s == 0:
        raise DomainError("needs_marked_points", g=g, s=s)
    require_hyperbolic(standard_surface(g, s))


# --------------------------------------------------------------------------
# factors: the discrete invariants a case ranges over


_Sizes = dict[str, int]


def _factor_sizes(g: int, s: int) -> _Sizes:
    """Number of values of each factor at (g, s), from h1 = dim H^1_V =
    2g+s-1 and h2 = dim H^2_V = s (plus g and s themselves)."""
    h1, h2 = 2 * g + s - 1, s
    big, tor = 1 << h1, 1 << (h1 - h2 + 1)
    return {
        "g": g, "s": s,
        "w1": big,              # w1 in H^1_V
        "w1_nonzero": big - 1,  # nonzero w1
        "w2": 1 << h2,          # w2 in H^2_V
        "alpha": 1,             # the fixed weight vector
        "torsion": tor,         # the 2^{2g} torsion classes
        "degrees": h1 - 1,      # sub-maximal degrees 0 .. 2g-3+s
        "so_degrees": 2 * h1 - 1,  # SO0(2,3): pardeg(M) in 0 .. 4g-4+2s
        "roots": big,           # square roots at the maximal degree
        "roots_fixed": tor,     # ... at a fixed weight assignment
    }


_VECTOR_FACTORS = ("w1", "w2", "torsion")
_DEGREE_FACTORS = ("degrees", "so_degrees")
_ROOT_FACTORS = ("roots", "roots_fixed")


def _alpha_bits(s: int, par: str) -> tuple[int, ...]:
    """Canonical weight bit-vector of the given parity (1 marks weight 1/2)."""
    if par == "even":
        return (0,) * s
    return (1,) + (0,) * (s - 1)


def _factor_values(name: str, z: _Sizes, parity: str | None) -> Iterable:
    """A factor's values in lexicographic order, vectors made as they are
    consumed."""
    if name in _VECTOR_FACTORS:  # size 2^k: every vector of Z_2^k
        return product((0, 1), repeat=z[name].bit_length() - 1)
    if name == "w1_nonzero":  # lexicographic order puts the zero vector first
        return islice(_factor_values("w1", z, parity), 1, None)
    if name == "alpha":
        return [_alpha_bits(z["s"], parity)]
    return range(z[name])


def _materialize(factors: tuple[str, ...], z: _Sizes, parity: str | None
                 ) -> Iterator:
    """Every invariant of one case, lexicographic over its factors, built
    one at a time as the iterator is consumed.

    Two factors give an ``InvariantTuple``: w1 x w2 (or the fixed weight
    vector), or a parabolic structure x a degree.  One factor gives root
    indices as ``square_root`` tuples and any other values bare.  Tuples
    are stored from their checked parts: bits from ``product((0, 1))`` or
    _alpha_bits, degrees and root indices from ``range``.
    """
    store = InvariantTuple._store
    first = _factor_values(factors[0], z, parity)
    if len(factors) == 2:
        second = tuple(_factor_values(factors[1], z, parity))
        if factors[1] in _DEGREE_FACTORS:
            return (store("parabolic_degree", None, None, p, d, None)
                    for p in first for d in second)
        return (store("w1_w2", a, b, None, None, None)
                for a in first for b in second)
    if factors[0] in _ROOT_FACTORS:
        return (store("square_root", None, None, None, None, i) for i in first)
    return iter(first)


# --------------------------------------------------------------------------
# the case table


class _Entry:
    """The case analysis of one group row in one mode.

    ``cases`` are (label, factors) pairs in their published order; a case's
    closed form is the product of its factor sizes.  ``total`` is the
    published total where it is its own formula, else None (the sum of the
    cases).  No cases means no maximal objects.
    """

    __slots__ = ("cases", "total", "notes")

    def __init__(self, cases: tuple[tuple[str, tuple[str, ...]], ...],
                 total: Callable[[_Sizes], int] | None = None,
                 notes: tuple[str, ...] = ()):
        self.cases, self.total, self.notes = cases, total, notes


_SP2, _SP4, _SP2N = "Sp(2,R)=SL(2,R)", "Sp(4,R)", "Sp(2n,R), for n>=3"
_SU, _SO_STAR = "SU(n,n)", "SO*(2n), for n: even"
_SO023, _SO02N, _E7 = "SO0(2,3)", "SO0(2,n), for n>=4", "E7^{-25}"
_ROWS = (_SP2, _SP4, _SP2N, _SU, _SO_STAR, _SO023, _SO02N, _E7)
_KD = "nonparabolic_kd_twisted_s1"

_ROOTS = ("square_roots", ("roots",))
_ROOTS_FIXED = ("square_roots", ("roots_fixed",))
_SP4_FIXED_CASES = (("w1_nonzero", ("w1_nonzero", "alpha")),
                    ("submaximal_degrees", ("alpha", "degrees")))
_W1_VALUES_FIXED = ("w1_values", ("w1", "alpha"))
_ONLY_ROOTS = _Entry((_ROOTS,))
_NO_MAXIMAL = _Entry((), notes=("no maximal polystable objects for odd "
                                "weight assignments",))
_SO_STAR_FIXED = _Entry((("single_class", ("alpha",)),))
_SO023_FIXED = _Entry((("w1_nonzero", ("w1_nonzero",)),
                       ("w1_zero_degree_classes", ("so_degrees",))),
                      total=lambda z: z["w1"] + z["so_degrees"],
                      notes=("case-by-case enumeration gives 2^{2g+s-1}-1 "
                             "choices of nonzero w1, one fewer than the "
                             "published table formula 2^{2g+s-1}+(4g-3+2s); "
                             "both are reported",))
_SO02N_FIXED = _Entry((("w1_values", ("w1",)),))

# Keyed by (row, mode): the mode is the variant, or the parity for
# max_fixed_alpha.  A missing key is a mode the group has no count for.
# Sp(2n,R): nonzero w1 crossed with w2; then for w1 = 0 either a parabolic
# line with sub-maximal degree (n = 2 only) or, at the maximal degree, a
# square root.  For n = 1 and n >= 3 the degree case is absent and the
# w1/w2 pairs include w1 = 0.  Punctured mode keeps only the square roots.
# The K(D)-twisted counts (s = 1) lose the parabolic structure choice of the
# degree case.
_TABLE: dict[tuple[str, str], _Entry] = {
    (_SP2, "max_union"): _ONLY_ROOTS,
    (_SP2, "even"): _Entry((_ROOTS_FIXED,)),
    (_SP2, "odd"): _NO_MAXIMAL,
    (_SP2, "punctured"): _ONLY_ROOTS,
    (_SP4, "max_union"): _Entry(
        (("w1_nonzero_pairs", ("w1_nonzero", "w2")),
         ("w1_zero_submaximal", ("w2", "degrees")), _ROOTS),
        total=lambda z: ((z["w2"] + 1) * z["w1"]
                         + z["w2"] * (z["degrees"] - 1))),
    (_SP4, "even"): _Entry(_SP4_FIXED_CASES + (_ROOTS_FIXED,)),
    (_SP4, "odd"): _Entry(_SP4_FIXED_CASES),
    (_SP4, "punctured"): _ONLY_ROOTS,
    (_SP4, _KD): _Entry(
        (("w1_nonzero", ("w1_nonzero", "w2")),
         ("submaximal_degrees", ("degrees",)), _ROOTS),
        notes=("forgetting the parabolic structure recovers the classical "
               "K(D)-twisted count 3*2^{2g}+2g-3",)),
    (_SP2N, "max_union"): _Entry((("w1_w2_pairs", ("w1", "w2")), _ROOTS)),
    (_SP2N, "even"): _Entry((_W1_VALUES_FIXED, _ROOTS_FIXED)),
    (_SP2N, "odd"): _Entry((_W1_VALUES_FIXED,)),
    (_SP2N, "punctured"): _ONLY_ROOTS,
    (_SU, "max_union"): _Entry((("w1_values", ("w1",)),)),
    (_SU, "even"): _Entry((("w1_torsion_classes", ("torsion",)),)),
    (_SU, "odd"): _NO_MAXIMAL,
    (_SO_STAR, "max_union"): _Entry((("w2_values", ("w2",)),)),
    (_SO_STAR, "even"): _SO_STAR_FIXED,
    (_SO_STAR, "odd"): _SO_STAR_FIXED,
    (_SO023, "max_union"): _Entry(
        (("w1_nonzero_pairs", ("w1_nonzero", "w2")),
         ("w1_zero_degree_classes", ("w2", "so_degrees")))),
    (_SO023, "even"): _SO023_FIXED,
    (_SO023, "odd"): _SO023_FIXED,
    (_SO023, _KD): _Entry(
        (("w1_nonzero", ("w1_nonzero", "w2")),
         ("w1_zero_degree_classes", ("so_degrees",))),
        notes=("displayed K(D)-twisted count simplifies to "
               "2^{2g+1}+4g-3; the prose's 3*2^{2g}+4g-3 does not match "
               "it and is recorded, not reconciled",)),
    (_SO02N, "max_union"): _Entry(
        (("w1_w2_pairs", ("w1", "w2")),),
        total=lambda z: 1 << (2 * z["g"] + 2 * z["s"] - 1),
        notes=("2^s * 2^{2g+s-1} = 2^{2g+2s-1}: the per-case product and "
               "the table entry agree",)),
    (_SO02N, "even"): _SO02N_FIXED,
    (_SO02N, "odd"): _SO02N_FIXED,
    (_E7, "max_union"): _Entry(
        (("w1_values", ("w1",)),),
        notes=("count uses the H^1_V invariants only; further invariants "
               "beyond these may exist",)),
}

# Closed-surface (non-parabolic) maximal counts, read at s = 1.
_CLOSED_SURFACE: dict[str, Callable[[_Sizes], int]] = {
    _SP2: lambda z: z["torsion"],
    _SP4: lambda z: 3 * z["torsion"] + 4 * z["g"] - 4,
    _SP2N: lambda z: 3 * z["torsion"],
    _SU: lambda z: z["torsion"],
    _SO_STAR: lambda z: 1,
    _SO023: lambda z: 2 * z["torsion"] + 8 * z["g"] - 4,
    _SO02N: lambda z: 2 * z["torsion"],
    _E7: lambda z: z["torsion"],
}


_SP_ROWS = (_SP2, _SP4, _SP2N)
_FAMILY_ROWS = {"SUnn": _SU, "SOstar2n": _SO_STAR, "E7minus25": _E7}


def _row(group: GroupDescriptor) -> str:
    fam = group.family
    if fam == "Sp2nR":
        return _SP_ROWS[min(group.n, 3) - 1]
    if fam == "SO0_2n":
        return _SO023 if group.n == 3 else _SO02N
    if fam == "split":
        raise DomainError("unsupported_group_for_counting",
                          group=group.display())
    return _FAMILY_ROWS[fam]


def _entry(row: str, mode: CountMode) -> _Entry | None:
    return _TABLE.get((row, mode.parity or mode.variant))


def _closed_forms(entry: _Entry, z: _Sizes) -> tuple[list[int], int]:
    """Each case's closed form (the product of its factor sizes) and the
    published total."""
    sizes = []
    for _, factors in entry.cases:
        size = 1
        for name in factors:
            size *= z[name]
        sizes.append(size)
    return sizes, entry.total(z) if entry.total else sum(sizes)


# --------------------------------------------------------------------------
# Sp(2n,R) enumeration


def enumerate_invariants_sp(n: int, g: int, s: int, mode: CountMode,
                            cap: int | None = None) -> tuple[InvariantTuple, ...]:
    """Materialize every topological invariant tuple for Sp(2n,R).

    Deterministic: cases in their published order, tuples lexicographic
    within each case.  ``cap`` bounds the number of materialized tuples and
    is checked before any is built.
    """
    row = _row(sp2nr(n))
    _require_marked(g, s)
    entry = _entry(row, mode)
    if entry is None or mode.variant == _KD:
        raise DomainError("mode_not_enumerable", variant=mode.variant)
    z = _factor_sizes(g, s)
    check_cap(sum(_closed_forms(entry, z)[0]), cap)
    return tuple(t for _, factors in entry.cases
                 for t in _materialize(factors, z, mode.parity))


# --------------------------------------------------------------------------
# the main counting entry point


def _report(group, g, s, mode, pairs, total_closed, verdict=None, notes=()):
    cases = tuple(CaseCount(label, enum, closed)
                  for label, enum, closed in pairs)
    total_enum = sum(c.enumerated for c in cases)
    return ComponentCountReport(
        group=group, genus=g, marked_points=s, mode=mode, cases=cases,
        total_enumerated=total_enum, total_closed_form=total_closed,
        match=(total_enum == total_closed), verdict=verdict,
        notes=tuple(notes))


def count_components(group: GroupDescriptor, g: int, s: int, mode: CountMode,
                     cap: int | None = None) -> ComponentCountReport:
    """Count connected components (lower bound) per group, mode and (g, s).

    The per-case breakdown follows the published case analysis; enumerated
    counts come from storing each invariant tuple in turn from checked
    parts, none of which is kept, and closed forms from the products of the
    factor sizes.  ``match`` compares the enumerated total with the
    published one.  ``cap`` bounds the enumeration and is checked against
    the case sizes before any tuple is built.
    """
    row = _row(group)
    if mode.variant.startswith("nonparabolic") and s != 1:
        raise DomainError("nonparabolic_modes_need_single_point", s=s)
    _require_marked(g, s)
    z = _factor_sizes(g, s)
    if mode.variant == "nonparabolic_s1":
        value = _CLOSED_SURFACE[row](z)
        return _report(group, g, s, mode,
                       [("closed_surface_classes", value, value)], value)
    entry = _entry(row, mode)
    if entry is None:
        raise DomainError("unsupported_mode_for_group", group=group.display(),
                          mode=mode.variant)
    sizes, total = _closed_forms(entry, z)
    if mode.variant == _KD:  # counted, not enumerated, like the closed surface
        enumerated = sizes
    else:
        check_cap(sum(sizes), cap)
        enumerated = [sum(1 for _ in _materialize(factors, z, mode.parity))
                      for _, factors in entry.cases]
    pairs = [(label, enum, size) for (label, _), enum, size
             in zip(entry.cases, enumerated, sizes)]
    return _report(group, g, s, mode, pairs, total,
                   verdict=None if entry.cases else "no_maximal_objects",
                   notes=entry.notes)


# --------------------------------------------------------------------------
# split groups and the puncture count


def teichmuller_count(group: GroupDescriptor, g: int, s: int) -> int:
    """Number of parabolic Teichmuller components: 2^{2g+s-1}, split G only."""
    if not is_split(group):
        raise DomainError("not_split", group=group.display())
    _require_marked(g, s)
    return _factor_sizes(g, s)["w1"]


def strubel_count(g: int, m: int) -> int:
    """Component count 2^{2g+m-1} for maximal Sp(2n,R) surface-group
    representations with m >= 1 boundary components, independent of n.

    Read from the punctured Sp(2,R) entry of the case table: over the glued
    surface H^2 vanishes, so only one line bundle lives over each affine
    cell and the square-root classes are all that remain.
    """
    _require_marked(g, m)
    return _closed_forms(_TABLE[(_SP2, "punctured")], _factor_sizes(g, m))[1]


# --------------------------------------------------------------------------
# tables


@frozen_value
class TableRow:
    label: str
    count: str
    teichmuller: str


@frozen_value
class ComponentTable:
    title: str
    rows: tuple[TableRow, ...]
    footnotes: tuple[str, ...] = ()


_DASH = "-"

# Teichmuller cells: "{}" takes the Sp(2,R) total of the table's mode (a
# dash where that is empty); any other text is printed as it stands.
_TEICHMULLER_CELLS = {_SP2: "{}", _SP4: "{}", _SP2N: "{}",
                      _SU: "- ({} if n=1)", _SO023: "1"}


def _table(title: str, key: str, z: _Sizes, footnotes=()) -> ComponentTable:
    split_total = _closed_forms(_TABLE[(_SP2, key)], z)[1]
    rows = []
    for label in _ROWS:
        entry = _TABLE.get((label, key))
        if entry is None:
            continue
        count = str(_closed_forms(entry, z)[1]) if entry.cases else _DASH
        teich = _TEICHMULLER_CELLS.get(label, _DASH)
        if "{}" in teich:
            teich = teich.format(split_total) if split_total else _DASH
        rows.append(TableRow(label, count, teich))
    return ComponentTable(title, tuple(rows), footnotes)


def emit_tables(g: int, s: int) -> tuple[ComponentTable, ComponentTable,
                                         ComponentTable]:
    """Instantiate the three component-count tables at (g, s).

    Count cells are the case table's published totals.  Dashes mark empty
    or undefined cells (e.g. the odd-parity Sp(2,R) row: no maximal
    objects).  The SO0(2,3) fixed-parity rows print the published formula;
    the one-smaller enumerated total is flagged in a footnote.
    """
    _require_marked(g, s)
    z = _factor_sizes(g, s)
    fixed_footnote = ("SO0(2,3) prints the published formula "
                      "2^{2g+s-1}+(4g-3+2s); the case-by-case enumeration "
                      "gives one fewer (see the count report).",)
    return (
        _table("Table 1: minimum components of the maximal moduli "
               "(all weights)", "max_union", z),
        _table("Table 2: minimum components at a fixed even weight "
               "assignment", "even", z, fixed_footnote),
        _table("Table 3: minimum components at a fixed odd weight "
               "assignment", "odd", z, fixed_footnote))


def tables_markdown(tables: tuple[ComponentTable, ...], g: int, s: int) -> str:
    """Render the tables as Markdown (deterministic byte-for-byte); an item
    that is not a ComponentTable is refused (table_not_component_table)."""
    standard_surface(g, s)  # refuses a g or s that is not an exact int
    lines = [f"# Connected-component tables at genus {g}, marked points {s}",
             ""]
    for i, table in enumerate(read_container(tables, iter,
                                             "tables_not_sequence")):
        if type(table) is not ComponentTable:
            raise DomainError("table_not_component_table", index=i,
                              type=type(table).__name__)
        lines.append(f"## {table.title}")
        lines.append("")
        lines.append("| Lie group G | minimum components | "
                     "Teichmuller components |")
        lines.append("| --- | --- | --- |")
        for row in table.rows:
            lines.append(f"| {row.label} | {row.count} | {row.teichmuller} |")
        lines.append("")
        for note in table.footnotes:
            lines.append(f"*{note}*")
            lines.append("")
    return "\n".join(lines)


# --------------------------------------------------------------------------
# single-puncture reduction report


@frozen_value
class S1ReductionReport:
    """Comparison of the parabolic s=1 count with the closed-surface counts.

    ``kd_twisted_count`` (one-puncture K(D)-twisted moduli) is only stated
    for Sp(4,R) and SO0(2,3); it is None for the other groups.  The degree
    case loses a factor of 2 relative to the parabolic count because the
    line bundle carries no parabolic-structure choice.
    """

    group: GroupDescriptor
    genus: int
    parabolic_count: int
    parabolic_cases: tuple[CaseCount, ...]
    kd_twisted_count: int | None
    kd_twisted_cases: tuple[tuple[str, int], ...]
    table_count: int
    notes: tuple[str, ...] = ()

    def _json_shape(self, obj: dict) -> dict:
        """The fields' JSON, each K(D)-twisted (label, count) an object."""
        obj["kd_twisted_cases"] = [{"label": label, "count": count}
                                   for label, count in self.kd_twisted_cases]
        return obj


def s1_reduction_report(group: GroupDescriptor, g: int,
                        cap: int | None = None) -> S1ReductionReport:
    """Reduce the parabolic count at s=1 and compare with the closed-surface
    catalog (and, where stated, the K(D)-twisted count).  ``cap`` bounds the
    parabolic enumeration as in :func:`count_components`."""
    parabolic = count_components(group, g, 1, CountMode.max_union(), cap=cap)
    row = _row(group)
    z = _factor_sizes(g, 1)
    table_value = _CLOSED_SURFACE[row](z)

    notes: list[str] = []
    kd_count: int | None = None
    kd_cases: tuple[tuple[str, int], ...] = ()
    kd = _TABLE.get((row, _KD))
    if kd is not None:
        sizes, kd_count = _closed_forms(kd, z)
        kd_cases = tuple((label, size) for (label, _), size
                         in zip(kd.cases, sizes))
        notes.extend(kd.notes)
    else:
        notes.append("no K(D)-twisted case analysis is stated for this "
                     "group; only the closed-surface count is compared")

    if parabolic.total_enumerated != table_value:
        notes.append("parabolic count exceeds the closed-surface count by "
                     "the square roots of O(p) at the puncture (a factor "
                     "of 2^s per degree case)")

    return S1ReductionReport(
        group=group, genus=g,
        parabolic_count=parabolic.total_enumerated,
        parabolic_cases=parabolic.cases,
        kd_twisted_count=kd_count,
        kd_twisted_cases=kd_cases,
        table_count=table_value,
        notes=tuple(notes))
