"""Exact rational arithmetic shared by every module.

No floating point anywhere: weights and degrees are `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable

__all__ = [
    "DomainError",
    "check_cap",
    "all_bits",
    "rational_sum",
    "rat_from_str",
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


def check_cap(needed: int, cap: int | None) -> None:
    """Refuse a request for more than cap items before any is built."""
    if cap is not None and needed > cap:
        raise DomainError("enumeration_cap_exceeded", needed=needed, cap=cap)


_BITS = frozenset((0, 1))


def all_bits(values) -> bool:
    """Whether every value equals 0 or 1, by one set inclusion.

    An unhashable value is not a bit; a non-iterable raises TypeError.
    """
    try:
        return _BITS.issuperset(values)
    except TypeError:  # an unhashable value, or no iterable at all
        return all(v in (0, 1) for v in values)


def rational_sum(values: Iterable[Fraction | int]) -> Fraction:
    """The exact sum of rationals (Fractions or ints) as one Fraction.

    The numerators are summed as integers over the running lcm of the
    denominators and reduced once, at the end.  An empty sum is Fraction(0),
    never the int 0: the JSON writer prints a Fraction as "0" and an int as 0.
    """
    num, den = 0, 1
    for v in values:
        q = v.denominator
        if den % q:
            step = lcm(den, q) // den
            num, den = num * step, den * step
        num += v.numerator * (den // q)
    return Fraction(num, den)


@lru_cache(maxsize=1024, typed=True)
def rat_from_str(s: str | int) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact rational.

    The last 1,024 results are kept, keyed by value and type (so ``True``
    and ``1`` are parsed apart), and one shared ``Fraction`` is returned for
    a repeated value; a ``Fraction`` is immutable.  A refusal is not kept:
    a bad value raises bad_rational on every call.  An unhashable argument,
    which is neither a string nor an integer, raises TypeError.
    """
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad_rational", value=str(s)) from exc
