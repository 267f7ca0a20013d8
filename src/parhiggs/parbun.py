"""Parabolic bundles: weighted flags, parabolic degree/slope, duals, twists.

Weights are exact rationals in [0,1), attached either to the full flag of a
vector bundle or to the single fiber line of a parabolic line bundle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .exact_core import (DomainError, EMPTY_MAPPING, exact_int, frozen_value,
                         mapping_items, rat, rat_from_str, rational_sum,
                         read_container)
from .surface import MarkedSurface

__all__ = [
    "ParabolicFlag",
    "ParabolicLineBundle",
    "ParabolicBundle",
    "trivial_flag",
    "pardeg",
    "parslope",
    "par_dual",
    "par_tensor_line",
]


def _check_weight(w: Fraction | int | str) -> Fraction:
    """The weight w as a Fraction in [0, 1).  An int or a "p/q" string is read
    by rat_from_str (bad_rational if malformed); any other type is refused
    with bad_weight, so a float is not rounded and a bool not read as 0 or 1."""
    if type(w) is not Fraction:
        if type(w) is not int and type(w) is not str:
            raise DomainError("bad_weight", weight=w)
        w = rat_from_str(w)
    if not 0 <= w.numerator < w.denominator:
        raise DomainError("weight_out_of_range", weight=w)
    return w


@frozen_value
class ParabolicFlag:
    """Weighted flag data at one point: multiplicities k_i, weights a_1 < ... < a_r."""

    multiplicities: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        ks = read_container(self.multiplicities, tuple,
                            "multiplicities_not_sequence")
        ws = read_container(self.weights, tuple, "weights_not_sequence")
        object.__setattr__(self, "multiplicities", ks)
        object.__setattr__(self, "weights", ws)
        ParabolicFlag._rules(self)

    def _rules(self):
        """The shape: one multiplicity per weight, at least one
        (bad_flag_shape); then each multiplicity an exact int >= 1
        (bad_flag_multiplicity), each weight read by _check_weight and their
        strict increase (flag_weights_not_increasing)."""
        ks = self.multiplicities
        if len(ks) != len(self.weights) or not ks:
            raise DomainError("bad_flag_shape")
        for k in ks:
            exact_int(k, "bad_flag_multiplicity", 1, mult=ks)
        ws = [_check_weight(w) for w in self.weights]
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise DomainError("flag_weights_not_increasing", weights=ws)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)

    def weight_sum(self) -> Fraction:
        return rational_sum([k * a for k, a in zip(self.multiplicities, self.weights)])


def trivial_flag(rank: int) -> ParabolicFlag:
    return ParabolicFlag((rank,), (Fraction(0),))


@frozen_value
class ParabolicLineBundle:
    """Line bundle with one weight in [0,1) per marked point (missing = 0).

    Its pardeg is fixed when it is built, as a reduced (numerator,
    denominator) pair of ints, outside the fields that equality, repr and
    JSON read; ``weight_at`` is not to be mutated.
    """

    degree: int
    weight_at: Mapping[str, Fraction] = EMPTY_MAPPING

    def __post_init__(self):
        exact_int(self.degree, "bad_degree", degree=self.degree)
        read_container(self.weight_at, mapping_items, "weight_at_not_mapping")
        ParabolicLineBundle._rules(self)

    def _rules(self):
        """The weights as a new dict, each read by _check_weight, and the
        pardeg, degree plus their sum, as a reduced (numerator, denominator)
        pair of ints: rational_sum's loop, fused with the weight check, as
        a second pass is slower per construction, which verdicts repeat."""
        clean, num, den = {}, self.degree, 1
        for lbl, w in self.weight_at.items():
            w = clean[lbl] = _check_weight(w)
            p, q = w.numerator, w.denominator
            if den % q:
                step = lcm(den, q) // den
                num, den = num * step, den * step
            num += p * (den // q)
        g = gcd(num, den)
        object.__setattr__(self, "weight_at", clean)
        object.__setattr__(self, "_pardeg_pair", (num // g, den // g))

    def weight(self, label: str) -> Fraction:
        return self.weight_at.get(label, Fraction(0))


@frozen_value
class ParabolicBundle:
    """Rank-n bundle with a weighted flag over each marked point; a flag that
    is not a ParabolicFlag is refused (flag_not_parabolic_flag)."""

    rank: int
    degree: int
    flag_at: Mapping[str, ParabolicFlag] = EMPTY_MAPPING

    def __post_init__(self):
        _check_rank(self.rank)  # refused before the degree, then in _rules
        exact_int(self.degree, "bad_degree", degree=self.degree)
        ParabolicBundle._rules(self)

    def _rules(self):
        """The rank, then the flags, copied into a dict of their own (else
        flag_at_not_mapping), each in turn a ParabolicFlag of this rank."""
        _check_rank(self.rank)
        flags = read_container(self.flag_at, dict, "flag_at_not_mapping")
        for lbl, fl in flags.items():
            if type(fl) is not ParabolicFlag:
                raise DomainError("flag_not_parabolic_flag", label=lbl,
                                  type=type(fl).__name__)
            if fl.rank != self.rank:
                raise DomainError("flag_rank_mismatch", label=lbl,
                                  flag_rank=fl.rank, rank=self.rank)
        object.__setattr__(self, "flag_at", flags)

    def flag(self, label: str) -> ParabolicFlag:
        if self.rank == 0:
            raise DomainError("rank_zero_has_no_flag", label=label)
        return self.flag_at.get(label) or trivial_flag(self.rank)


def _check_rank(rank) -> None:
    exact_int(rank, "bad_rank", 0, rank=rank)


def _check_points(b, surf: MarkedSurface) -> None:
    keys = b.flag_at if isinstance(b, ParabolicBundle) else b.weight_at
    if keys and not surf._label_set.issuperset(keys):
        raise DomainError("flag_surface_mismatch",
                          unknown=sorted(keys.keys() - surf._label_set, key=str))


def pardeg(b: ParabolicBundle | ParabolicLineBundle, surf: MarkedSurface) -> Fraction:
    """deg E + sum over marked points of sum_i k_i(x) a_i(x), an absent flag
    adding 0.  A line bundle's value was fixed when it was built, so its
    ``weight_at`` is not to be mutated."""
    _check_points(b, surf)
    if isinstance(b, ParabolicLineBundle):
        return rat(*b._pardeg_pair)
    return rational_sum([b.degree, *(fl.weight_sum() for fl in b.flag_at.values())])


def _pardegs_over_lcm(lines: Sequence[ParabolicLineBundle], surf: MarkedSurface
                      ) -> tuple[int, list[int]]:
    """(den, nums): the pardegs of the line bundles as integers over their
    least common denominator, each line's points checked in turn as
    ``pardeg`` checks them."""
    for l in lines:
        _check_points(l, surf)
    pairs = [l._pardeg_pair for l in lines]
    den = lcm(*[q for _, q in pairs])
    return den, [p * (den // q) for p, q in pairs]


def parslope(b: ParabolicBundle | ParabolicLineBundle, surf: MarkedSurface) -> Fraction:
    rank = 1 if isinstance(b, ParabolicLineBundle) else b.rank
    if rank == 0:
        raise DomainError("slope_of_rank_zero")
    return pardeg(b, surf) / rank


def _dual_weight(a: Fraction) -> Fraction:
    """1 - a for a = p/q in (0,1), built as (q - p)/q; 0 stays 0."""
    return rat(a.denominator - a.numerator, a.denominator) if a else a


def par_dual(b: ParabolicBundle | ParabolicLineBundle):
    """Parabolic dual: 0 stays 0, a -> 1-a, degree forced so pardeg negates.

    A line bundle's dual is checked where it is built, not again by its
    constructor: b's weights are checked, so each 1 - a is in [0,1), and
    pardeg L* = -pardeg L."""
    if isinstance(b, ParabolicLineBundle):
        weights, shift = {}, 0
        for x, a in b.weight_at.items():
            if a:
                a = _dual_weight(a)
                shift += 1
            weights[x] = a
        num, den = b._pardeg_pair
        dual = ParabolicLineBundle._store(-b.degree - shift, weights)
        object.__setattr__(dual, "_pardeg_pair", (-num, den))
        return dual
    shift = 0
    flags = {}
    for lbl, fl in b.flag_at.items():
        pairs = sorted((_dual_weight(a), k)
                       for k, a in zip(fl.multiplicities, fl.weights))
        flags[lbl] = ParabolicFlag(tuple(k for _, k in pairs),
                                   tuple(a for a, _ in pairs))
        shift += sum(k for k, a in zip(fl.multiplicities, fl.weights) if a != 0)
    return ParabolicBundle(b.rank, -b.degree - shift, flags)


def par_tensor_line(b: ParabolicBundle | ParabolicLineBundle,
                    l: ParabolicLineBundle):
    """Tensor by a parabolic line bundle: weights add mod 1, wraps feed degree.

    Kept: the twist of the layout table, the pardeg law
    pardeg(E (x) L) = pardeg E + rk E . pardeg L that the parbun tests check.
    A rank-0 bundle has no flags and comes back unchanged.
    """
    if isinstance(b, ParabolicLineBundle):
        deg = b.degree + l.degree
        weights = {}
        for x in set(b.weight_at) | set(l.weight_at):
            t = b.weight(x) + l.weight(x)
            if t >= 1:
                deg += 1
                t -= 1
            if t:
                weights[x] = t
        return ParabolicLineBundle(deg, weights)
    if b.rank == 0:
        return b
    deg = b.degree + b.rank * l.degree
    flags = {}
    for x in set(b.flag_at) | set(l.weight_at):
        fl = b.flag(x)
        beta = l.weight(x)
        pairs = []
        for k, a in zip(fl.multiplicities, fl.weights):
            t = a + beta
            if t >= 1:
                deg += k
                t -= 1
            pairs.append((t, k))
        pairs.sort()
        flags[x] = ParabolicFlag(tuple(k for _, k in pairs),
                                 tuple(a for a, _ in pairs))
    return ParabolicBundle(b.rank, deg, flags)
