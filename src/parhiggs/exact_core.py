"""Exact rational arithmetic and GF(2) linear algebra shared by every module.

No floating point anywhere: weights and degrees are `fractions.Fraction`,
mod-2 data lives in int bitmasks (bit j of a row = column j).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "DomainError",
    "rat_from_str",
    "rat_to_str",
    "Z2Matrix",
    "z2_rank",
    "z2_solution_set",
    "q_matrix_rank",
]


class DomainError(ValueError):
    """Contract violation carrying a machine-readable code plus payload."""

    def __init__(self, code: str, **info):
        self.code = code
        self.info = info
        detail = ", ".join(f"{k}={v}" for k, v in sorted(info.items()))
        super().__init__(f"{code}({detail})" if detail else code)

    def payload(self) -> dict:
        out: dict = {"error": self.code}
        out.update(self.info)
        return out


def rat_from_str(s: str | int) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact rational."""
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad_rational", value=str(s)) from exc


def rat_to_str(x: Fraction | int) -> str:
    """Serialize exactly as "p/q", or "n" when the denominator is 1."""
    return str(Fraction(x))


@dataclass(frozen=True)
class Z2Matrix:
    """Matrix over the two-element field. Row i is an int; bit j = entry (i,j)."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0 or len(self.data) != self.rows:
            raise DomainError("bad_matrix_shape", rows=self.rows, cols=self.cols)
        mask = (1 << self.cols) - 1
        for r in self.data:
            if r < 0 or r & ~mask:
                raise DomainError("bad_matrix_row", cols=self.cols)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "Z2Matrix":
        if cols is None:
            cols = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if len(row) != cols:
                raise DomainError("ragged_rows", cols=cols, got=len(row))
            data.append(sum((b & 1) << j for j, b in enumerate(row)))
        return cls(len(rows), cols, tuple(data))

    def entry(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1


def _echelon(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """In-place style forward elimination; returns (reduced rows, pivot cols)."""
    rows = list(rows)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, len(rows)) if rows[i] >> c & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] >> c & 1:
                rows[i] ^= rows[r]
        pivots.append(c)
        r += 1
    return rows, pivots


def z2_rank(m: Z2Matrix) -> int:
    """Rank of m over GF(2)."""
    _, pivots = _echelon(list(m.data), m.cols)
    return len(pivots)


def z2_solution_set(m: Z2Matrix, b: Sequence[int],
                    cap: int | None = None) -> list[tuple[int, ...]]:
    """All x with m.x = b, in lexicographic order; [] when inconsistent.

    The solution count is 0 or 2^(cols - rank); with `cap` set, exceeding it
    raises rather than truncating.
    """
    if len(b) != m.rows:
        raise DomainError("dimension_mismatch", rows=m.rows, got=len(b))
    aug = [row | ((bi & 1) << m.cols) for row, bi in zip(m.data, b)]
    red, pivots = _echelon(aug, m.cols)
    rank = len(pivots)
    for row in red[rank:]:
        if row >> m.cols & 1:
            return []
    free = [c for c in range(m.cols) if c not in set(pivots)]
    count = 1 << len(free)
    if cap is not None and count > cap:
        raise DomainError("enumeration_cap_exceeded", needed=count, cap=cap)
    sols = []
    for choice in range(count):
        x = 0
        for t, c in enumerate(free):
            if choice >> t & 1:
                x |= 1 << c
        for r in range(rank - 1, -1, -1):
            c = pivots[r]
            acc = (red[r] >> m.cols) & 1
            v = red[r] & ~(1 << c) & ((1 << m.cols) - 1)
            acc ^= bin(v & x).count("1") & 1
            if acc:
                x |= 1 << c
            else:
                x &= ~(1 << c)
        sols.append(tuple((x >> j) & 1 for j in range(m.cols)))
    sols.sort()
    return sols


def q_matrix_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank over Q by fraction Gaussian elimination.

    Small helper for the subspace-intersection dimensions that the stability
    module's relative-degree pairing needs.
    """
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    if any(len(r) != ncols for r in work):
        raise DomainError("ragged_rows", cols=ncols)
    rank = 0
    for c in range(ncols):
        sel = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        lead = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / lead[c]
                work[i] = [a - f * b for a, b in zip(work[i], lead)]
        rank += 1
    return rank
