"""Exact rational arithmetic and the frozen value classes shared by every
module.

No floating point anywhere: weights and degrees are `fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Iterable

__all__ = [
    "DomainError",
    "FrozenFieldError",
    "EMPTY_MAPPING",
    "frozen_value",
    "exact_int",
    "read_container",
    "mapping_items",
    "exact_cap",
    "check_cap",
    "exact_bits",
    "rational_sum",
    "rat",
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


class FrozenFieldError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a frozen value."""


# The default of a mapping field: read-only, so one object serves every
# class; each class copies the mapping it is given.
EMPTY_MAPPING = MappingProxyType({})


def _refuse_assignment(self, name, value):
    raise FrozenFieldError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenFieldError(f"cannot delete field {name!r}")


def _field_values(value) -> tuple:
    return tuple([getattr(value, name) for name, _ in value._value_fields])


def _value_repr(self) -> str:
    inner = ", ".join(f"{name}={getattr(self, name)!r}"
                      for name, _ in self._value_fields)
    return f"{type(self).__qualname__}({inner})"


def _value_eq(self, other):
    if other.__class__ is self.__class__:
        return _field_values(self) == _field_values(other)
    return NotImplemented


def _value_hash(self) -> int:
    return hash(_field_values(self))


def _generate(cls: type) -> None:
    """Put the straight-line ``__init__`` and ``_store`` of the frozen value
    class ``cls`` on it, both compiled from one source."""
    env = {"_set": object.__setattr__, "_new": object.__new__, "_cls": cls}
    slots = cls.__dict__.get("__slots__", ())
    params, sets = [], []
    for name, required in cls._value_fields:
        if not required:
            env[f"_d_{name}"] = cls.__dict__[name]
        params.append(name if required else f"{name}=_d_{name}")
        if name in slots:  # the slot's own setter, quicker than _set
            env[f"_s_{name}"] = cls.__dict__[name].__set__
            sets.append(f"    _s_{name}(self, {name})\n")
        else:
            sets.append(f"    _set(self, {name!r}, {name})\n")
    post = "    self.__post_init__()\n" if hasattr(cls, "__post_init__") else ""
    fields = ", ".join(name for name, _ in cls._value_fields)
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(sets)}{post}"
         f"def _store({fields}):\n    self = _new(_cls)\n{''.join(sets)}"
         "    return self\n", env)
    cls.__init__ = env["__init__"]
    cls._store = staticmethod(env["_store"])


class _InitOnFirstUse:
    """A value class's ``__init__`` or ``_store`` until one of them is first
    looked up: then both are generated and replace their descriptors on the
    class, and the one looked up is returned, bound to the instance where
    there is one."""

    __slots__ = ("cls", "name")

    def __init__(self, cls: type, name: str):
        self.cls, self.name = cls, name

    def __get__(self, instance, owner=None):
        _generate(self.cls)
        return getattr(self.cls if instance is None else instance, self.name)


def frozen_value(cls: type) -> type:
    """Make ``cls`` a frozen value class over its annotated fields, in order.

    This is the standard library's frozen dataclass, cut down to what the
    value classes use, without its module, which loads ``inspect``, ``ast``
    and ``dis`` into every process that imports it:
    - ``__init__`` takes the fields in order, a field with a class-level
      default as an optional argument, and ends by calling
      ``__post_init__`` where there is one;
    - ``cls._store(*fields)`` is the store-only builder: it takes every
      field in order and sets each as ``__init__`` does, calling nothing,
      so the value has the layout ``__init__`` gives it.  The JSON reader
      follows it with the class's ``_rules()``; a function that builds a
      value from parts it has checked itself stores them with it, and sets
      any value the class keeps outside its fields after it;
    - both are generated, from one source, when either is first looked up
      (the first construction, ``inspect.signature`` or the first store),
      not here, so importing the package compiles nothing;
    - the repr is ``Name(field=value, ...)``; equality holds between values
      of one class with equal field tuples, and the hash is that tuple's;
    - assigning or deleting an attribute raises FrozenFieldError.
    ``cls._value_fields`` lists the fields as (name, required) pairs.  A
    class may declare ``__slots__`` naming its fields.
    """
    slots = cls.__dict__.get("__slots__", ())
    cls._value_fields = tuple(
        (name, name in slots or name not in cls.__dict__)
        for name in cls.__annotations__)
    cls.__init__ = _InitOnFirstUse(cls, "__init__")
    cls._store = _InitOnFirstUse(cls, "_store")
    cls.__repr__, cls.__eq__, cls.__hash__ = _value_repr, _value_eq, _value_hash
    cls.__setattr__, cls.__delattr__ = _refuse_assignment, _refuse_deletion
    return cls


def exact_int(value, code: str, low: int | None = None, /, **info) -> int:
    """``value`` if its type is exactly ``int`` (a bool is not one) and it is
    at least ``low`` where given, else DomainError(code, **info): the one
    check of that rule, each caller naming its own code and payload."""
    if type(value) is not int or (low is not None and value < low):
        raise DomainError(code, **info)
    return value


def read_container(value, read, code: str, /):
    """``read(value)``, the container a field or parameter is read as
    (``tuple``, ``list``, ``dict``, ``iter``, ``len`` or ``mapping_items``),
    else DomainError(code, type=<the type name of value>) where read raises
    TypeError, ValueError or AttributeError: the one check of that rule,
    each caller naming its own code.  A DomainError raised while reading,
    such as one from a generator's own items, passes unchanged."""
    try:
        return read(value)
    except DomainError:
        raise
    except (TypeError, ValueError, AttributeError):
        raise DomainError(code, type=type(value).__name__) from None


def mapping_items(mapping):
    """``mapping.items()``: read_container's reader of a mapping, no copy."""
    return mapping.items()


def exact_cap(cap: int) -> int:
    """``cap`` if it is an exact int >= 1, else DomainError("bad_cap",
    cap=cap): the one check of an enumeration cap, for check_cap and the
    CLI's --cap."""
    return exact_int(cap, "bad_cap", 1, cap=cap)


def check_cap(needed: int, cap: int | None) -> None:
    """Refuse a request for more than cap items before any is built; a cap
    that is neither None nor an exact int >= 1 is refused (bad_cap)."""
    exact_int(needed, "bad_item_count", 0, needed=needed)
    if cap is not None and needed > exact_cap(cap):
        raise DomainError("enumeration_cap_exceeded", needed=needed, cap=cap)


def exact_bits(values, code: str, container_code: str, /, **info) -> tuple:
    """``values`` read as a tuple (read_container, container_code) whose
    items are each exactly the int 0 or 1, else DomainError(code, **info):
    the one check of the bit rule, each caller naming its own codes.  A
    bool or a float is not a bit."""
    bits = read_container(values, tuple, container_code)
    for v in bits:
        if type(v) is not int or not 0 <= v <= 1:
            raise DomainError(code, **info)
    return bits


def rational_sum(values: Iterable[Fraction | int]) -> Fraction:
    """The exact sum of rationals (Fractions or ints) as one Fraction.

    The numerators are summed as integers over the running lcm of the
    denominators and reduced once, at the end.  An empty sum is Fraction(0),
    never the int 0: the JSON writer prints a Fraction as "0" and an int as 0.
    A ``values`` that is not iterable is refused (values_not_sequence).
    """
    num, den = 0, 1
    for v in read_container(values, iter, "values_not_sequence"):
        q = v.denominator
        if den % q:
            step = lcm(den, q) // den
            num, den = num * step, den * step
        num += v.numerator * (den // q)
    return rat(num, den)


@lru_cache(maxsize=4096, typed=True)
def rat(p: int, q: int) -> Fraction:
    """The rational p/q, reduced, as ``Fraction(p, q)`` makes it.

    Every Fraction the package builds from two integers is built here.  The
    last 4,096 results are kept, keyed by the pair and its types, and one
    shared ``Fraction`` is returned for a repeated pair; a ``Fraction`` is
    immutable.  Keying by type keeps ``rat(1.0, 2)`` a TypeError, as
    ``Fraction(1.0, 2)`` is, after ``rat(1, 2)`` is kept.  A refusal is not
    kept: q = 0 raises ZeroDivisionError on every call.
    """
    return Fraction(p, q)


@lru_cache(maxsize=1024, typed=True)
def rat_from_str(s: str | int) -> Fraction:
    """Parse "p/q" or a bare integer string into an exact rational.

    Only a ``str`` or an ``int`` is read; any other type (a bool, a float,
    a Fraction) is refused with bad_rational, as is a malformed string, on
    every call.  The last 1,024 results are kept, keyed by value and type,
    and one shared ``Fraction`` is returned for a repeated value; a
    ``Fraction`` is immutable.  An unhashable argument raises TypeError.
    """
    if type(s) is int:
        return Fraction(s)
    if type(s) is not str:
        raise DomainError("bad_rational", value=str(s))
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError("bad_rational", value=str(s)) from exc
