"""Z2 cohomology ranks of the orbifold surface via Mayer-Vietoris bookkeeping.

The six-term rank computation is exposed directly (piece ranks plus
restriction-map ranks in, glued ranks out) so the three surface modes are
auditable instances of one calculation rather than three hard-coded triples.
"""

from __future__ import annotations

from .exact_core import DomainError, exact_int, frozen_value, read_container
from .surface import standard_surface

__all__ = [
    "VCohRanks",
    "MVPieces",
    "mv_ranks",
    "v_cohomology_ranks",
    "bz2_disk_ranks",
]

Triple = tuple[int, int, int]

MODES = ("order2", "punctured", "odd_order")


@frozen_value
class VCohRanks:
    h0: int
    h1: int
    h2: int

    def __post_init__(self):
        ranks = [self.h0, self.h1, self.h2]
        for r in ranks:
            exact_int(r, "bad_rank_triple", which="ranks", value=ranks)
        if min(ranks) < 0:
            raise DomainError("negative_rank", ranks=ranks)

    def astuple(self) -> Triple:
        return (self.h0, self.h1, self.h2)

    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


def _triple(name, t) -> Triple:
    t = read_container(t, tuple, f"{name}_not_sequence")
    for x in t:
        exact_int(x, "bad_rank_triple", 0, which=name, value=list(t))
    if len(t) != 3:
        raise DomainError("bad_rank_triple", which=name, value=list(t))
    return t


@frozen_value
class MVPieces:
    """Ranks of H^i (i=0,1,2) of the two pieces and their intersection, plus
    the ranks of the three restriction maps H^i(V1)+H^i(V2) -> H^i(inter)."""

    v1: Triple
    v2: Triple
    intersection: Triple
    restriction: Triple

    def __post_init__(self):
        for name in ("v1", "v2", "intersection", "restriction"):
            object.__setattr__(self, name, _triple(name, getattr(self, name)))


def mv_ranks(p: MVPieces) -> VCohRanks:
    """Glued ranks forced by exactness of the two-dimensional sequence
    0 -> H^0(M) -> H^0(V1)+H^0(V2) -> H^0(I) -> H^1(M) -> ... -> H^2(I) -> 0.

    Valid inputs need every restriction rank within min(source, target) and
    the top restriction surjective (the sequence ends in zero); under those,
    h0 - h1 + h2 is the inclusion-exclusion Euler characteristic.
    """
    a = tuple(x + y for x, y in zip(p.v1, p.v2))
    b = p.intersection
    rho = p.restriction
    for i in range(3):
        if rho[i] > min(a[i], b[i]):
            raise DomainError("mv_inconsistent", level=i,
                              restriction=rho[i], source=a[i], target=b[i])
    if rho[2] != b[2]:
        raise DomainError("mv_inconsistent", level=2,
                          restriction=rho[2], target=b[2],
                          reason="top restriction must be onto")
    return VCohRanks(a[0] - rho[0],
                     (b[0] - rho[0]) + (a[1] - rho[1]),
                     (b[1] - rho[1]) + (a[2] - rho[2]))


def bz2_disk_ranks() -> VCohRanks:
    """H^i of the half-point neighborhood (disk quotient): one Z2 each."""
    return VCohRanks(1, 1, 1)


def v_cohomology_ranks(g: int, s: int, mode: str) -> tuple[VCohRanks, str]:
    """Ranks of the orbifold surface with s marked points, plus provenance.

    order2 glues the punctured surface with s disk quotients through s
    circles (computed through mv_ranks); punctured is the open surface
    (h2 = 0, h1 from the Euler characteristic); odd_order returns the stated
    ranks, flagged, since the gluing pieces reported for that case do not
    recompute them.  Even orders above 2 are refused outright.
    """
    if mode not in MODES:
        raise DomainError("unsupported_mode", mode=mode)
    if type(g) is int and type(s) is int and (g < 0 or s < 1):
        raise DomainError("needs_marked_points", g=g, s=s)
    standard_surface(g, s)  # refuses a g or s that is not an exact int
    if mode == "order2":
        disk = bz2_disk_ranks().astuple()
        pieces = MVPieces(
            v1=(1, 2 * g + s - 1, 0),
            v2=tuple(s * r for r in disk),
            intersection=(s, s, 0),
            restriction=(s, s, 0))
        return mv_ranks(pieces), "computed"
    if mode == "punctured":
        chi = 2 - 2 * g - s
        return VCohRanks(1, 1 - chi, 0), "computed"
    return VCohRanks(1, 2 * g + s - 1, s), "as stated (Remark 9.3)"
