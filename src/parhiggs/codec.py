"""The JSON form of every payload and every JSON input.

Writing: a Fraction becomes "p/q" (or "n"), a set a sorted list, a tuple or
list a list, a mapping its items sorted by key, and a value class
(``exact_core.frozen_value``) its fields, six of them under a shorter key
(``_KEYS``).  Reading is driven by the value class's field types and refuses
what JSON would only coerce: integers must be JSON integers, strings JSON
strings, rationals "p/q" strings or integers.  A key may be missing only
where its field has a default; unknown keys are refused.  The three shapes
the fields cannot give are in ``_value_json``.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .exact_core import DomainError, rat_from_str

__all__ = ["JsonShapeError", "to_json", "from_json", "decoder"]

# field name -> JSON key, where they differ
_KEYS = {"weight_at": "weights", "flag_at": "flags", "multiplicities": "mult",
         "desing_degree": "desing", "beta_arrows": "beta",
         "gamma_arrows": "gamma"}
_COMPONENTS = f"{__package__}.components"


class JsonShapeError(DomainError):
    """JSON input without the shape of the type it is read as; ``at`` is the
    path of keys to the offending value, e.g. ``$.v_summands.degree``."""

    def __init__(self, expected: str, keys: tuple[str, ...] = ()):
        self.expected, self.keys = expected, keys
        super().__init__("bad_json", at="".join(["$", *(f".{k}" for k in keys)]),
                         expected=expected)


# ------------------------------------------------------------- writing ----

def to_json(value):
    """The JSON value of ``value`` (ints, strings, booleans and None as is)."""
    if isinstance(value, Fraction):
        return str(value)  # "p/q", or "n" when the denominator is 1
    if isinstance(value, (set, frozenset)):
        return [to_json(v) for v in sorted(value)]
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, Mapping):
        return {k: to_json(v) for k, v in sorted(value.items())}
    if hasattr(value, "_value_fields"):
        return _value_json(value)
    return value


@cache
def _field_keys(cls: type) -> tuple[tuple[str, str], ...]:
    return tuple((name, _KEYS.get(name, name)) for name, _ in cls._value_fields)


def _value_json(value) -> dict:
    obj = {key: to_json(getattr(value, name))
           for name, key in _field_keys(type(value))}
    # The three shapes are components classes, looked up rather than
    # imported: none of their values exists before that module is loaded.
    comp = sys.modules.get(_COMPONENTS)
    if comp is None:
        return obj
    # a group's computed display, with an unset n or name left out; a
    # mode's parity, left out when unset; the K(D)-twisted (label, count)
    # pairs as objects
    if isinstance(value, (comp.GroupDescriptor, comp.CountMode)):
        obj = {k: v for k, v in obj.items() if v is not None}
    if isinstance(value, comp.GroupDescriptor):
        obj["display"] = value.display()
    elif isinstance(value, comp.S1ReductionReport):
        obj["kd_twisted_cases"] = [{"label": label, "count": count}
                                   for label, count in value.kd_twisted_cases]
    return obj


# ------------------------------------------------------------- reading ----

def from_json(cls, obj):
    """Read the JSON value ``obj`` as an instance of the type ``cls``."""
    return decoder(cls)(obj)


def _exactly(types: tuple[type, ...], expected: str):
    """A reader passing on values of exactly these types (so a bool is
    not an int)."""
    def read(obj):
        if type(obj) not in types:
            raise JsonShapeError(expected)
        return obj
    return read


def _rational(obj) -> Fraction:
    if type(obj) is not str and type(obj) is not int:
        raise JsonShapeError('a rational "p/q"')
    return rat_from_str(obj)


_list, _object = _exactly((list,), "a list"), _exactly((dict,), "an object")
_SCALARS = {int: _exactly((int,), "an integer"), str: _exactly((str,), "a string"),
            Fraction: _rational}


@cache
def decoder(tp):
    """The reader of one type, built once per type: ``decoder(tp)(obj)`` is
    ``from_json(tp, obj)``, for callers that read many values of one type."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if hasattr(tp, "_value_fields"):
        return _value_decoder(tp)
    origin, args = get_origin(tp), get_args(tp)
    if origin is UnionType and len(args) == 2 and args[1] is type(None):
        inner = decoder(args[0])
        return lambda obj: None if obj is None else inner(obj)
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        item = decoder(args[0])
        return lambda obj: tuple([item(x) for x in _list(obj)])
    if origin is tuple:
        items = tuple(decoder(a) for a in args)

        def fixed(obj):
            if type(obj) is not list or len(obj) != len(items):
                raise JsonShapeError(f"a list of {len(items)}")
            return tuple([read(x) for read, x in zip(items, obj)])
        return fixed
    if origin is frozenset:
        item = decoder(args[0])
        return lambda obj: frozenset([item(x) for x in _list(obj)])
    if origin is Mapping and args[0] is str:
        value = decoder(args[1])
        return lambda obj: {k: value(v) for k, v in _object(obj).items()}
    raise TypeError(f"no JSON form for {tp!r}")


def _value_decoder(cls):
    hints = get_type_hints(cls)
    plan = tuple((name, _KEYS.get(name, name), decoder(hints[name]), required)
                 for name, required in cls._value_fields)
    known = ", ".join(sorted(key for _, key, _, _ in plan))

    def decode(obj):
        kwargs, found = {}, 0
        _object(obj)
        for name, key, read, required in plan:
            if key in obj:
                found += 1
                try:
                    kwargs[name] = read(obj[key])
                except JsonShapeError as err:
                    raise JsonShapeError(err.expected, (key,) + err.keys) from None
            elif required:
                raise JsonShapeError(f"an object with key {key!r}")
        if found != len(obj):
            raise JsonShapeError(f"an object with keys among {known}")
        return cls(**kwargs)
    return decode
