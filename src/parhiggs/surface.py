"""Base geometry: a genus-g surface with s marked points and isotropy orders.

Carries deg K(D) = 2g - 2 + s and the Riemann-Roch count used by the
Teichmüller-dimension formula.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_core import DomainError, exact_int, frozen_value, read_container

__all__ = [
    "MarkedPoint",
    "MarkedSurface",
    "standard_surface",
    "deg_kd",
    "h0_twisted_power",
    "require_hyperbolic",
]


@frozen_value
class MarkedPoint:
    label: str
    order: int = 2

    def __post_init__(self):
        if type(self.label) is not str:
            raise DomainError("bad_label", label=self.label)
        MarkedPoint._rules(self)

    def _rules(self):
        exact_int(self.order, "bad_isotropy_order", 1, label=self.label,
                  order=self.order)


def _check_genus(genus) -> None:
    exact_int(genus, "bad_genus", 0, genus=genus)


@frozen_value
class MarkedSurface:
    """A compact genus-g surface with a reduced divisor of marked points.

    The points are held as a tuple, each a MarkedPoint (anything else is
    refused with point_not_marked_point).  Their labels are listed once,
    when it is built, as a tuple and as a frozenset, outside the fields that
    equality, repr and JSON read.
    """

    __slots__ = ("_labels", "_label_set")
    genus: int
    points: tuple[MarkedPoint, ...] = ()

    def __post_init__(self):
        _check_genus(self.genus)  # refused before the points, then in _rules
        points = read_container(self.points, tuple, "points_not_sequence")
        for i, p in enumerate(points):
            if type(p) is not MarkedPoint:
                raise DomainError("point_not_marked_point", index=i,
                                  type=type(p).__name__)
        object.__setattr__(self, "points", points)
        MarkedSurface._rules(self)

    def _rules(self):
        """The genus, then the labels: a label given twice is refused
        (duplicate_point_labels)."""
        _check_genus(self.genus)
        labels = tuple([p.label for p in self.points])
        label_set = frozenset(labels)
        if len(label_set) != len(labels):
            raise DomainError("duplicate_point_labels", labels=list(labels))
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_label_set", label_set)

    @property
    def s(self) -> int:
        return len(self.points)

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def is_hyperbolic(self) -> bool:
        return 2 * self.genus - 2 + self.s > 0


def standard_surface(genus: int, s: int) -> MarkedSurface:
    """Surface with points labelled x1..xs, each of isotropy order 2.

    An s that is not an exact int >= 0 is refused (bad_marked_points), then
    such a genus (bad_genus), both before the cache, so an unhashable
    argument is refused too.  The last 128 surfaces are kept, and a repeated
    request returns the same frozen surface.
    """
    exact_int(s, "bad_marked_points", 0, s=s)
    _check_genus(genus)
    return _standard_surface(genus, s)


@lru_cache(maxsize=128)
def _standard_surface(genus: int, s: int) -> MarkedSurface:
    return MarkedSurface(genus, tuple(MarkedPoint(f"x{i+1}") for i in range(s)))


def require_hyperbolic(surface: MarkedSurface) -> MarkedSurface:
    """The surface itself; fail unless 2g - 2 + s > 0."""
    if not surface.is_hyperbolic():
        raise DomainError("not_hyperbolic", g=surface.genus, s=surface.s)
    return surface


def deg_kd(surface: MarkedSurface) -> int:
    """deg K(D) = 2g - 2 + s."""
    return 2 * surface.genus - 2 + surface.s


def h0_twisted_power(surface: MarkedSurface, m: int) -> int:
    """dim H^0(X, K^{m+1} otimes xi^m) = (2m+1)(g-1) + m s for m >= 1.

    Valid because deg K^{m+1} xi^m exceeds 2g-2 on a hyperbolic surface,
    killing H^1; m = 0 is rejected rather than special-cased.
    """
    require_hyperbolic(surface)
    exact_int(m, "bad_twist_power", 1, m=m)
    return (2 * m + 1) * (surface.genus - 1) + m * surface.s
