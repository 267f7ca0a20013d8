"""Parabolic bundles: weighted flags, parabolic degree/slope, duals, twists.

Weights are exact rationals in [0,1), attached either to the full flag of a
vector bundle or to the single fiber line of a parabolic line bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .exact_core import DomainError
from .surface import MarkedSurface

__all__ = [
    "ParabolicFlag",
    "ParabolicLineBundle",
    "ParabolicBundle",
    "ResidueBlockPattern",
    "trivial_flag",
    "line_to_bundle",
    "pardeg",
    "parslope",
    "par_dual",
    "par_tensor_line",
    "par_direct_sum",
    "residue_class",
    "is_parabolic_map",
]


def _check_weight(w: Fraction) -> Fraction:
    if type(w) is not Fraction:
        w = Fraction(w)
    if not 0 <= w.numerator < w.denominator:
        raise DomainError("weight_out_of_range", weight=w)
    return w


@dataclass(frozen=True)
class ParabolicFlag:
    """Weighted flag data at one point: multiplicities k_i, weights a_1 < ... < a_r."""

    multiplicities: tuple[int, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.multiplicities) != len(self.weights) or not self.multiplicities:
            raise DomainError("bad_flag_shape")
        if any(k < 1 for k in self.multiplicities):
            raise DomainError("bad_flag_multiplicity", mult=self.multiplicities)
        ws = [_check_weight(w) for w in self.weights]
        if any(a >= b for a, b in zip(ws, ws[1:])):
            raise DomainError("flag_weights_not_increasing", weights=ws)
        object.__setattr__(self, "weights", tuple(ws))

    @property
    def rank(self) -> int:
        return sum(self.multiplicities)

    @property
    def steps(self) -> int:
        return len(self.multiplicities)

    def weight_sum(self) -> Fraction:
        return sum((k * a for k, a in zip(self.multiplicities, self.weights)),
                   Fraction(0))


def trivial_flag(rank: int) -> ParabolicFlag:
    return ParabolicFlag((rank,), (Fraction(0),))


@dataclass(frozen=True)
class ParabolicLineBundle:
    """Line bundle with one weight in [0,1) per marked point (missing = 0).

    Its pardeg is fixed when it is built, in integers over the lcm of the
    weights' denominators, outside the fields that equality, repr and JSON
    read; ``weight_at`` is not to be mutated.
    """

    degree: int
    weight_at: Mapping[str, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean, num, den = {}, self.degree, 1
        for lbl, w in self.weight_at.items():
            w = clean[lbl] = _check_weight(w)
            if den % w.denominator:
                step = lcm(den, w.denominator) // den
                num, den = num * step, den * step
            num += w.numerator * (den // w.denominator)
        object.__setattr__(self, "weight_at", clean)
        object.__setattr__(self, "_pardeg", Fraction(num, den))

    def weight(self, label: str) -> Fraction:
        return self.weight_at.get(label, Fraction(0))


@dataclass(frozen=True)
class ParabolicBundle:
    """Rank-n bundle with a weighted flag over each marked point."""

    rank: int
    degree: int
    flag_at: Mapping[str, ParabolicFlag] = field(default_factory=dict)

    def __post_init__(self):
        if self.rank < 0:
            raise DomainError("bad_rank", rank=self.rank)
        for lbl, fl in self.flag_at.items():
            if fl.rank != self.rank:
                raise DomainError("flag_rank_mismatch", label=lbl,
                                  flag_rank=fl.rank, rank=self.rank)

    def flag(self, label: str) -> ParabolicFlag:
        return self.flag_at.get(label) or trivial_flag(self.rank)


def line_to_bundle(l: ParabolicLineBundle, surf: MarkedSurface) -> ParabolicBundle:
    flags = {lbl: ParabolicFlag((1,), (l.weight(lbl),)) for lbl in surf.labels()}
    return ParabolicBundle(1, l.degree, flags)


def _check_points(b, surf: MarkedSurface) -> None:
    keys = b.flag_at if isinstance(b, ParabolicBundle) else b.weight_at
    extra = keys.keys() - surf.labels() if keys else None
    if extra:
        raise DomainError("flag_surface_mismatch", unknown=sorted(extra))


def pardeg(b: ParabolicBundle | ParabolicLineBundle, surf: MarkedSurface) -> Fraction:
    """deg E + sum over marked points of sum_i k_i(x) a_i(x), an absent flag
    adding 0.  A line bundle's value was fixed when it was built, so its
    ``weight_at`` is not to be mutated."""
    _check_points(b, surf)
    if isinstance(b, ParabolicLineBundle):
        return b._pardeg
    return sum((fl.weight_sum() for fl in b.flag_at.values()), Fraction(b.degree))


def parslope(b: ParabolicBundle | ParabolicLineBundle, surf: MarkedSurface) -> Fraction:
    rank = 1 if isinstance(b, ParabolicLineBundle) else b.rank
    if rank == 0:
        raise DomainError("slope_of_rank_zero")
    return pardeg(b, surf) / rank


def _dual_weight(a: Fraction) -> Fraction:
    return 1 - a if a else a


def par_dual(b: ParabolicBundle | ParabolicLineBundle):
    """Parabolic dual: 0 stays 0, a -> 1-a, degree forced so pardeg negates."""
    if isinstance(b, ParabolicLineBundle):
        shift = sum(1 for w in b.weight_at.values() if w != 0)
        return ParabolicLineBundle(-b.degree - shift,
                                   {x: _dual_weight(w) for x, w in b.weight_at.items()})
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
    """Tensor by a parabolic line bundle: weights add mod 1, wraps feed degree."""
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


def par_direct_sum(a: ParabolicBundle, b: ParabolicBundle) -> ParabolicBundle:
    """Ranks and degrees add; flags merge with weights sorted, mults accumulated."""
    if a.rank == 0:
        return b
    if b.rank == 0:
        return a
    flags = {}
    for x in set(a.flag_at) | set(b.flag_at):
        acc: dict[Fraction, int] = {}
        for fl in (a.flag(x), b.flag(x)):
            for k, w in zip(fl.multiplicities, fl.weights):
                acc[w] = acc.get(w, 0) + k
        ws = sorted(acc)
        flags[x] = ParabolicFlag(tuple(acc[w] for w in ws), tuple(ws))
    return ParabolicBundle(a.rank + b.rank, a.degree + b.degree, flags)


@dataclass(frozen=True)
class ResidueBlockPattern:
    """Square block pattern; allowed[i][j] True = residue block (i,j) may be nonzero.

    Row i is the target flag step, column j the source step, so filtration
    preservation is block-lower-triangularity (i >= j).
    """

    allowed: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        n = len(self.allowed)
        if any(len(r) != n for r in self.allowed):
            raise DomainError("bad_pattern_shape")

    @property
    def steps(self) -> int:
        return len(self.allowed)


def residue_class(pattern: ResidueBlockPattern, flag: ParabolicFlag) -> str:
    """Classify a residue support pattern against a flag.

    strongly_parabolic: only strictly-lower blocks allowed (nilpotent residue);
    parabolic: lower-triangular including the diagonal; neither otherwise.
    """
    if pattern.steps != flag.steps:
        raise DomainError("pattern_flag_mismatch",
                          pattern=pattern.steps, flag=flag.steps)
    strictly_lower = True
    lower = True
    for i, row in enumerate(pattern.allowed):
        for j, ok in enumerate(row):
            if not ok:
                continue
            if i < j:
                lower = False
            if i <= j:
                strictly_lower = False
    if not lower:
        return "neither"
    return "strongly_parabolic" if strictly_lower else "parabolic"


def is_parabolic_map(src: ParabolicBundle, dst: ParabolicBundle,
                     allowed_blocks: Mapping[str, Sequence[Sequence[bool]]],
                     strongly: bool = False) -> bool:
    """Does a map with the given block support respect the parabolic weights?

    allowed_blocks[x][j][i] covers the component from source step i into
    target step j; the map fails whenever a supported block has source weight
    greater than (or, strongly, >=) the target weight.
    """
    if set(src.flag_at) != set(dst.flag_at) or set(allowed_blocks) != set(src.flag_at):
        raise DomainError("map_point_mismatch")
    for x, blocks in allowed_blocks.items():
        sfl, dfl = src.flag(x), dst.flag(x)
        if len(blocks) != dfl.steps or any(len(r) != sfl.steps for r in blocks):
            raise DomainError("pattern_flag_mismatch", label=x)
        for j, row in enumerate(blocks):
            for i, ok in enumerate(row):
                if not ok:
                    continue
                ai, aj = sfl.weights[i], dfl.weights[j]
                if ai > aj or (strongly and ai == aj):
                    return False
    return True
