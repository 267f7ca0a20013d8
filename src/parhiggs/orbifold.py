"""Orbifold side: Seifert line-bundle arithmetic, square roots, characters,
and the local correspondence for Higgs fields.

A line V-bundle over a marked surface is recorded by its Seifert data: the
degree of the desingularized bundle plus one isotropy residue 0 <= b < k per
marked point of order k.  On top of that sit the fractional degree, tensor
group law, square-root counting, Z2-character enumeration on the V-fundamental
group, the orbifold Euler characteristic, and the exact local dictionary
between weighted (parabolic) Higgs matrices in w and equivariant matrices in z
with w = z^m.

The public constructors check all they are given; z2_character_enumerate,
the local maps and the Laurent-matrix readers check their values where they
make them, and every Laurent matrix gets its frame checked by _check_frame.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from .codec import JsonShapeError, object_reader
from .exact_core import (REQUIRED, DomainError, EMPTY_MAPPING,
                         _check_printable_counts, check_cap, exact_bits,
                         exact_int, frozen_value, mapping_items, rat,
                         rational_sum, read_container)
from .parbun import ParabolicLineBundle, _check_weight
from .surface import MarkedSurface

__all__ = [
    "VLineBundle",
    "SquareRootFamily",
    "Z2Character",
    "PicVStructure",
    "LocalChart",
    "LaurentMatrix",
    "vline_degree",
    "vline_tensor",
    "torsion_multiplicity",
    "square_root_count",
    "square_root_types",
    "z2_character_count",
    "z2_character_enumerate",
    "pic_v_structure",
    "kawasaki_euler",
    "vline_to_parabolic_line",
    "parabolic_line_to_vline",
    "laurent_matrix",
    "equivariance_check",
    "par_to_orb_local",
    "orb_to_par_local",
    "laurent_to_json",
    "laurent_from_json",
]


# ----------------------------------------------------- Seifert arithmetic ----

@frozen_value
class VLineBundle:
    """Seifert data: desingularized degree plus isotropy residues per point.
    A zero residue is dropped: the point is then not listed.  The degree is
    checked after the residues (bad_degree)."""

    desing_degree: int
    isotropy: Mapping[str, int] = EMPTY_MAPPING

    def __post_init__(self):
        clean = {}
        for lbl, b in read_container(self.isotropy, mapping_items,
                                      "isotropy_not_mapping"):
            if exact_int(b, "bad_isotropy", label=lbl, residue=b):
                clean[lbl] = b
        if any(b < 0 for b in clean.values()):
            raise DomainError("negative_isotropy", isotropy=dict(clean))
        exact_int(self.desing_degree, "bad_degree", degree=self.desing_degree)
        object.__setattr__(self, "isotropy", clean)

    def residue(self, label: str) -> int:
        return self.isotropy.get(label, 0)


def _check_isotropy(l: VLineBundle, surf: MarkedSurface) -> None:
    known = {p.label: p.order for p in surf.points}
    for lbl, b in l.isotropy.items():
        if lbl not in known:
            raise DomainError("isotropy_surface_mismatch", label=lbl)
        if not 0 <= b < known[lbl]:
            raise DomainError("isotropy_not_reduced", label=lbl,
                              residue=b, order=known[lbl])


def vline_degree(l: VLineBundle, surf: MarkedSurface) -> Fraction:
    """Fractional degree: desingularized degree plus sum of b_i/k_i."""
    _check_isotropy(l, surf)
    iso = l.isotropy
    return rational_sum([l.desing_degree, *(rat(iso[p.label], p.order)
                                            for p in surf.points if p.label in iso)])


def vline_tensor(a: VLineBundle, b: VLineBundle, surf: MarkedSurface) -> VLineBundle:
    """Group law: residues add mod the point order, each wrap bumps the
    desingularized degree by one (so the fractional degree is additive).

    Kept: the group law of Pic_V, which the module describes and the
    orbifold tests check through vline_degree and square_root_types.
    """
    _check_isotropy(a, surf)
    _check_isotropy(b, surf)
    desing = a.desing_degree + b.desing_degree
    iso = {}
    for p in surf.points:
        tot = a.residue(p.label) + b.residue(p.label)
        desing += tot // p.order
        iso[p.label] = tot % p.order
    return VLineBundle(desing, iso)


@frozen_value
class SquareRootFamily:
    """Square-root isotropy types plus the symbolic torsion multiplicity.

    Each type is one Seifert datum; the degree-0 part of the Picard group
    contributes a further 2^{2g} holomorphic choices per type, carried as a
    count, never enumerated.
    """

    types: tuple[VLineBundle, ...]
    torsion_multiplicity: int

    @property
    def total(self) -> int:
        return len(self.types) * self.torsion_multiplicity


def torsion_multiplicity(surf: MarkedSurface) -> int:
    """2^{2g}: the holomorphic choices the degree-0 Picard group adds to
    each square-root type.  Like every count here, refused (count_too_long)
    at a (g, s) whose counts could not be printed."""
    _check_printable_counts(surf.genus, surf.s)
    return 2 ** (2 * surf.genus)


def square_root_count(l: VLineBundle, surf: MarkedSurface) -> int:
    """The number of Seifert types whose square is l, in closed form, none
    built; refused as square_root_types refuses, in the same order.

    A square (2e + #{rho_i = 1}, residues 0) can only hit bundles with zero
    residues; for those, the rho in {0,1}^s with sum congruent to the degree
    leave 2^{s-1} types (s >= 1).  Without marked points there is one root,
    or none for an odd degree (no_square_root).
    """
    _check_isotropy(l, surf)
    for p in surf.points:
        if p.order != 2:
            raise DomainError("orders_not_two", label=p.label, order=p.order)
    _check_printable_counts(surf.genus, surf.s)
    if l.isotropy:
        return 0
    if surf.points:
        return 2 ** (surf.s - 1)
    if l.desing_degree % 2:
        raise DomainError("no_square_root", degree=l.desing_degree)
    return 1


def square_root_types(l: VLineBundle, surf: MarkedSurface,
                      cap: int | None = None) -> SquareRootFamily:
    """All Seifert types whose square is l, over a surface with order-2 points.

    ``cap`` bounds the number of types, square_root_count, counted before
    any is built; each is made checked: residues 0 or 1, the 1s kept.
    """
    check_cap(square_root_count(l, surf), cap)
    mult = torsion_multiplicity(surf)
    if l.isotropy:
        return SquareRootFamily((), mult)
    d, labels, store = l.desing_degree, surf.labels(), VLineBundle._store
    return SquareRootFamily(tuple(
        store((d - sum(rho)) // 2, {x: 1 for x, r in zip(labels, rho) if r})
        for rho in itertools.product((0, 1), repeat=len(labels))
        if sum(rho) % 2 == d % 2), mult)


# ------------------------------------------------------------ characters ----

@frozen_value
class Z2Character:
    """Additive Z2 character: values on a_1,b_1,..,a_g,b_g and on sigma_1..s.

    The single surface relation forces the sigma values to sum to 0 mod 2.
    A direct construction keeps both vectors as tuples, refuses a value that
    is not exactly the int 0 or 1 (exact_bits, character_value_not_bit; a
    bool or a float is not a bit) and checks the sum; z2_character_enumerate
    checks them once per factor and stores each character with ``_store``.
    """

    ab: tuple[int, ...]
    sigma: tuple[int, ...]

    def __post_init__(self):
        ab = exact_bits(self.ab, "character_value_not_bit", "ab_not_sequence")
        sigma = exact_bits(self.sigma, "character_value_not_bit",
                           "sigma_not_sequence")
        if sum(sigma) % 2:
            raise DomainError("sigma_parity_violated", sigma=list(sigma))
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "sigma", sigma)


def z2_character_count(surf: MarkedSurface) -> int:
    """2^{2g} times 2^{s'-1} where s' counts the even-order points."""
    _check_printable_counts(surf.genus, surf.s)
    s_even = sum(1 for p in surf.points if p.order % 2 == 0)
    return 2 ** (2 * surf.genus) * (2 ** (s_even - 1) if s_even else 1)


def z2_character_enumerate(surf: MarkedSurface, cap: int | None = None
                           ) -> list[Z2Character]:
    """All characters, lexicographic in (a_1,b_1,..,b_g,sigma_1,..,sigma_s)."""
    check_cap(z2_character_count(surf), cap)
    even_pos = [t for t, p in enumerate(surf.points) if p.order % 2 == 0]
    sigmas = []
    for bits in itertools.product((0, 1), repeat=len(even_pos)):
        if sum(bits) % 2:
            continue
        sig = [0] * surf.s
        for t, v in zip(even_pos, bits):
            sig[t] = v
        sigmas.append(tuple(sig))
    sigmas.sort()
    # Each factor is checked where it is made: ab and sig hold int bits from
    # product((0, 1)), and sig has even parity, so no character needs the
    # constructor's check of every value.
    store = Z2Character._store
    return [store(ab, sig)
            for ab in itertools.product((0, 1), repeat=2 * surf.genus)
            for sig in sigmas]


@frozen_value
class PicVStructure:
    """Topological Picard group: desingularized Picard plus one Z_k per point."""

    genus: int
    cyclic_orders: tuple[int, ...]

    def identity_component_label(self) -> str:
        torus = f"(S^1)^{2 * self.genus}"
        if not self.cyclic_orders:
            return torus
        if all(k == 2 for k in self.cyclic_orders):
            return f"{torus} x Z_2^{len(self.cyclic_orders) - 1}"
        disc = " x ".join(f"Z_{k}" for k in self.cyclic_orders)
        return f"{torus} x ({disc})/(1,..,1)"


def pic_v_structure(surf: MarkedSurface) -> PicVStructure:
    return PicVStructure(surf.genus, tuple(p.order for p in surf.points))


def kawasaki_euler(l: VLineBundle, surf: MarkedSurface) -> int:
    """Euler characteristic 1 - g + deg - sum b_i/k_i = 1 - g + desing_degree."""
    _check_isotropy(l, surf)
    return 1 - surf.genus + l.desing_degree


def vline_to_parabolic_line(l: VLineBundle, surf: MarkedSurface) -> ParabolicLineBundle:
    """Corresponding weighted line: degree = desingularized degree, weight
    b_i/k_i per point, so the parabolic degree equals the fractional degree."""
    _check_isotropy(l, surf)
    return ParabolicLineBundle(
        l.desing_degree,
        {p.label: rat(l.residue(p.label), p.order)
         for p in surf.points if l.residue(p.label)})


def parabolic_line_to_vline(line: ParabolicLineBundle, surf: MarkedSurface
                            ) -> VLineBundle:
    """Corresponding V-line: residue weight * order at each point that has a
    weight, which must be an integer (weight_not_orbifold)."""
    weights, iso = line.weight_at, {}
    for p in surf.points:
        w = weights.get(p.label)
        if w is not None:
            b, r = divmod(w.numerator * p.order, w.denominator)
            if r:
                raise DomainError("weight_not_orbifold", label=p.label,
                                  weight=w, order=p.order)
            iso[p.label] = b
    return VLineBundle(line.degree, iso)


# ------------------------------------------------- local Higgs dictionary ----

@frozen_value
class LocalChart:
    """Cyclic order m (an int >= 1) with a good (nondecreasing) exponent
    tuple, 0<=k_i<=m."""

    m: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        exact_int(self.m, "bad_chart_order", 1, m=self.m)
        ks = read_container(self.exponents, list, "exponents_not_sequence")
        for k in ks:
            exact_int(k, "exponent_out_of_range", 0, exponents=ks, m=self.m)
        if not ks or max(ks) > self.m:
            raise DomainError("exponent_out_of_range", exponents=ks, m=self.m)
        if any(a > b for a, b in zip(ks, ks[1:])):
            raise DomainError("exponents_not_nondecreasing", exponents=ks)
        object.__setattr__(self, "exponents", tuple(ks))

    @property
    def n(self) -> int:
        return len(self.exponents)


Term = tuple[int, Fraction]

_FORMS = ("dw/w", "dz/z")


def _is_canonical(terms) -> bool:
    """True iff every term is a tuple (int, Fraction), exactly those types,
    the degrees increase strictly and no coefficient is zero: the form
    _clean_terms gives and LaurentMatrix holds."""
    prev = None
    for t in terms:
        if type(t) is not tuple or len(t) != 2:
            return False
        d, c = t
        if (type(d) is not int or type(c) is not Fraction or not c
                or (prev is not None and d <= prev)):
            return False
        prev = d
    return True


def _canonical_terms(terms: tuple) -> tuple[Term, ...]:
    """One entry's terms, a tuple: kept as given when they are canonical,
    else normalized by _clean_terms."""
    return terms if _is_canonical(terms) else _clean_terms(terms)


def _clean_terms(terms) -> tuple[Term, ...]:
    """Terms summed by degree, sorted, zeros dropped.  A term that is not a
    (degree, coefficient) pair, a degree that is not an int, or a
    coefficient that is a float, a bool or no rational at all, is refused
    (bad_term)."""
    acc: dict[int, Fraction] = {}
    for t in terms:
        try:
            d, c = t
        except (TypeError, ValueError):  # not a pair
            raise DomainError("bad_term", term=t) from None
        if type(d) is not int or type(c) in (float, bool):
            raise DomainError("bad_term", degree=d, coef=c)
        if type(c) is not Fraction:
            try:
                c = Fraction(c)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise DomainError("bad_term", degree=d, coef=c) from None
        acc[d] = acc[d] + c if d in acc else c
    return tuple(sorted([t for t in acc.items() if t[1]]))


@frozen_value
class LaurentMatrix:
    """Square matrix of truncated Laurent polynomials in a window, with form
    dw/w (weighted side) or dz/z (upstairs).  The matrix and its rows are
    stored as tuples, so the value is hashable and its entries cannot be
    replaced.  Entries are checked, not rebuilt: one that laurent_matrix
    would change is refused (terms_not_canonical).
    laurent_matrix, laurent_from_json and the two local maps build theirs
    without this per-term check (see _mapped)."""

    n: int
    entries: tuple[tuple[tuple[Term, ...], ...], ...]
    window: tuple[int, int]
    form: str

    def __post_init__(self):
        lo, hi = _check_frame(self.n, self.entries, self.window, self.form)
        exact_int(self.n, "bad_matrix_shape", n=self.n)  # len(rows) == True passes
        rows = tuple([tuple(row) for row in self.entries])
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "window", (lo, hi))
        for i, row in enumerate(rows):
            for j, terms in enumerate(row):
                if type(terms) is not tuple or not _is_canonical(terms):
                    raise DomainError("terms_not_canonical", entry=[i, j])
        _check_degrees(rows, lo, hi)


def _window_ends(window) -> tuple[int, int]:
    """The window's two ends, each an exact int; a window that is no
    sequence, whose length is not 2 or whose ends are not exact ints is
    refused with bad_window.  Their order is _check_frame's to check."""
    ends = read_container(window, tuple, "bad_window")
    shown = list(ends)
    if len(ends) != 2:
        raise DomainError("bad_window", window=shown)
    lo, hi = ends
    exact_int(lo, "bad_window", window=shown)
    exact_int(hi, "bad_window", window=shown)
    return ends


def _check_frame(n: int, rows, window, form: str) -> tuple[int, int]:
    """The window (lo, hi) of an n x n matrix, after the checks every Laurent
    matrix gets, in this order: the form, the window (two int ends, lo <= hi;
    anything else is refused with bad_window), the entries (a sequence, else
    entries_not_sequence) and the shape."""
    if form not in _FORMS:
        raise DomainError("bad_form_flag", form=form)
    lo, hi = _window_ends(window)
    if lo > hi:
        raise DomainError("bad_window", window=[lo, hi])
    if read_container(rows, len, "entries_not_sequence") != n or \
            any(len(r) != n for r in rows):
        raise DomainError("bad_matrix_shape", n=n)
    return lo, hi


def _check_degrees(rows, lo: int, hi: int) -> None:
    """Refuse (term_outside_window) the first degree outside [lo, hi] of the
    first entry, row by row, that has one; each entry is canonical, so only
    its first and last degree need a look."""
    for row in rows:
        for terms in row:
            if terms and not (lo <= terms[0][0] and terms[-1][0] <= hi):
                d = next(d for d, _ in terms if not lo <= d <= hi)
                raise DomainError("term_outside_window", degree=d,
                                  window=[lo, hi])


def laurent_matrix(n: int, terms: Mapping[tuple[int, int], Sequence[Term]],
                   window: tuple[int, int], form: str) -> LaurentMatrix:
    """Build from sparse {(i,j): [(deg, coef), ...]} terms, each entry
    normalized.  A key that is not a pair (i, j) of exact ints in 0..n-1 is
    refused (entry_out_of_range, the key as a list where it is a tuple), an
    entry whose terms are no sequence (entry_not_sequence) and a term that
    is not a (degree, coefficient) pair (bad_term)."""
    exact_int(n, "bad_matrix_shape", n=n)  # before range(n) reads it
    rows = [[() for _ in range(n)] for _ in range(n)]
    for key, ts in read_container(terms, mapping_items, "terms_not_mapping"):
        try:
            i, j = key
        except (TypeError, ValueError):  # not a pair
            i = j = None
        if (type(i) is not int or type(j) is not int
                or not (0 <= i < n and 0 <= j < n)):
            raise DomainError("entry_out_of_range", n=n, entry=list(key)
                              if type(key) is tuple else key)
        rows[i][j] = _canonical_terms(
            read_container(ts, tuple, "entry_not_sequence"))
    return _mapped(n, tuple(tuple(r) for r in rows), window, form)


def _w_degrees(terms: tuple[Term, ...], shift: int, m: int) -> list[int] | None:
    """The w-degrees (e - shift)/m of one entry's terms c z^e, where shift is
    k_i - k_j; None when the entry breaks equivariance: a term at k_i < k_j,
    or one whose power is not congruent to the shift mod m."""
    if shift < 0 and terms:
        return None
    out = []
    for e, _ in terms:
        d, r = divmod(e - shift, m)
        if r:
            return None
        out.append(d)
    return out


def equivariance_check(mat: LaurentMatrix, chart: LocalChart) -> bool:
    """True iff each entry (i,j) uses only powers congruent to k_i - k_j
    mod m, and entries with k_i < k_j vanish identically.

    The rule is ``_w_degrees``, which orb_to_par_local applies too: it
    refuses (not_equivariant) exactly the matrices this returns False for.
    """
    if mat.n != chart.n:
        raise DomainError("size_mismatch", matrix=mat.n, chart=chart.n)
    k, m = chart.exponents, chart.m
    for ki, row in zip(k, mat.entries):
        for kj, terms in zip(k, row):
            if terms and _w_degrees(terms, ki - kj, m) is None:
                return False
    return True


def _weights_to_exponents(m: int, weights: Sequence[Fraction]) -> list[int]:
    ks = []
    for w in weights:
        w = _check_weight(w)
        k, r = divmod(w.numerator * m, w.denominator)
        if r:
            raise DomainError("weight_not_in_denominator", weight=w, m=m)
        ks.append(k)
    if any(a > b for a, b in zip(ks, ks[1:])):
        raise DomainError("weights_not_nondecreasing",
                          weights=[Fraction(w) for w in weights])
    return ks


# Rows from both maps are canonical as built: d -> m*d + k_i - k_j and (equivariance
# checked) e -> (e - k_i + k_j)/m increase strictly, m >= 1 scales, window applied.
# Each coefficient is built from its integers, m*p/q and p/(q*m); rat reduces
# them to the value m*c and c/m would give.  Rows from
# _canonical_terms (laurent_matrix, laurent_from_json) are canonical too.  So
# _mapped builds the result without LaurentMatrix's per-term check.  It keeps
# the rest, in the constructor's order: the frame (_check_frame), then the
# degrees against the window (_check_degrees).
def _mapped(n: int, rows, window, form: str) -> LaurentMatrix:
    lo, hi = _check_frame(n, rows, window, form)
    _check_degrees(rows, lo, hi)
    return LaurentMatrix._store(n, rows, (lo, hi), form)


def par_to_orb_local(m: int, weights: Sequence[Fraction], higgs: LaurentMatrix,
                     window: tuple[int, int] | None = None
                     ) -> tuple[LocalChart, LaurentMatrix]:
    """Weighted local Higgs matrix psi(w) dw/w  ->  equivariant matrix in z.

    Entry (i,j) becomes m z^{k_i-k_j} psi_ij(z^m) with the dz/z form, where
    k_i = m * weight_i; the input must respect the weight filtration (entries
    with k_i < k_j identically zero).  Output truncated to the stated window,
    default [-1, 8m].
    """
    exact_int(m, "bad_chart_order", 1, m=m)
    if higgs.form != "dw/w":
        raise DomainError("wrong_form", form=higgs.form, expected="dw/w")
    size = read_container(weights, len, "weights_not_sequence")
    if size != higgs.n:
        raise DomainError("size_mismatch", matrix=higgs.n, weights=size)
    ks = _weights_to_exponents(m, weights)
    lo, hi = window = (-1, 8 * m) if window is None else _window_ends(window)
    rows = []
    for i, (ki, entries) in enumerate(zip(ks, higgs.entries)):
        row = []
        for j, (kj, terms) in enumerate(zip(ks, entries)):
            if not terms:
                row.append(())
                continue
            shift = ki - kj
            if shift < 0:
                raise DomainError("filtration_violation", entry=[i, j])
            out = []
            for d, c in terms:
                e = m * d + shift
                if lo <= e <= hi:
                    out.append((e, rat(c.numerator * m, c.denominator)))
            row.append(tuple(out))
        rows.append(tuple(row))
    return LocalChart(m, tuple(ks)), _mapped(higgs.n, tuple(rows), window, "dz/z")


def orb_to_par_local(chart: LocalChart, mat: LaurentMatrix,
                     window: tuple[int, int] | None = None
                     ) -> tuple[tuple[Fraction, ...], LaurentMatrix]:
    """Equivariant matrix in z  ->  weights k_i/m plus matrix in w = z^m.

    Inverse of par_to_orb_local on the truncation window: entry terms c z^e
    map to (c/m) w^{(e-k_i+k_j)/m}.  Equivariance makes the exponent
    integral.  It is checked term by term as the map runs, by the one rule
    equivariance_check also applies (``_w_degrees``): a matrix for which that
    returns False is refused (not_equivariant), before the result is built.
    """
    if mat.form != "dz/z":
        raise DomainError("wrong_form", form=mat.form, expected="dz/z")
    m, k = chart.m, chart.exponents
    if m in k:
        raise DomainError("exponent_equals_order", m=m)
    if mat.n != chart.n:
        raise DomainError("size_mismatch", matrix=mat.n, chart=chart.n)
    lo, hi = window = (-1, 8) if window is None else _window_ends(window)
    rows = []
    for ki, entries in zip(k, mat.entries):
        row = []
        for kj, terms in zip(k, entries):
            if not terms:
                row.append(())
                continue
            degrees = _w_degrees(terms, ki - kj, m)
            if degrees is None:
                raise DomainError("not_equivariant")
            out = []
            for d, (_, c) in zip(degrees, terms):
                if lo <= d <= hi:
                    out.append((d, rat(c.numerator, c.denominator * m)))
            row.append(tuple(out))
        rows.append(tuple(row))
    weights = tuple(rat(ki, m) for ki in k)
    return weights, _mapped(mat.n, tuple(rows), window, "dw/w")


# ---------------------------------------------------------------- JSON ----
# m lives outside the matrix and terms are {"deg", "coef"} objects.  Both
# object shapes are read by codec.object_reader, generated on first use; the
# keys are read in the order entries, window, form, m.

def laurent_to_json(mat: LaurentMatrix, m: int) -> dict:
    # str(c) is to_json(c): the constructor holds every coefficient as a Fraction
    return {"m": exact_int(m, "bad_chart_order", 1, m=m),
            "form": mat.form,
            "window": list(mat.window),
            "entries": [[[{"deg": d, "coef": str(c)} for d, c in e]
                         for e in row] for row in mat.entries]}


def _read_entries(obj, read_term) -> tuple[tuple[tuple[Term, ...], ...], ...]:
    if type(obj) is not list:
        raise JsonShapeError("a list")
    rows = []
    for row in obj:
        if type(row) is not list:
            raise JsonShapeError("a list")
        out = []
        for e in row:
            if type(e) is not list:
                raise JsonShapeError("a list")
            out.append(_canonical_terms(tuple([read_term(t) for t in e]))
                       if e else ())
        rows.append(tuple(out))
    return tuple(rows)


def _from_fields(rows, window, form: str, m: int) -> tuple[int, LaurentMatrix]:
    exact_int(m, "bad_chart_order", 1, m=m)
    return m, _mapped(len(rows), rows, window, form)


@cache
def _reader():
    term = object_reader([("deg", int, REQUIRED), ("coef", Fraction, REQUIRED)])
    return object_reader([("entries", lambda obj: _read_entries(obj, term), REQUIRED),
                          ("window", tuple[int, int], REQUIRED),
                          ("form", str, REQUIRED), ("m", int, REQUIRED)],
                         _from_fields)


def laurent_from_json(obj: dict) -> tuple[int, LaurentMatrix]:
    return _reader()(obj)
